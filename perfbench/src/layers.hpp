// Per-layer analysis shared by the workloads over real runtimes: span
// digests (self times by layer) and timed replays of public functions on
// data a run produced.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "conform/conformance_checker.hpp"
#include "recording_transport.hpp"
#include "reflect/dyn_object.hpp"
#include "serial/object_serializer.hpp"
#include "transport/interest_index.hpp"
#include "transport/message.hpp"

namespace perfbench {

/// Durations (µs) by layer boundary, from one traced phase's spans.
struct SpanDigest {
  std::vector<double> sender_self;     ///< core.send minus its exchange
  std::vector<double> exchange;        ///< top-level synchronous push exchanges
  std::vector<double> async_exchange;  ///< send_async call to callback
  std::vector<double> wire;            ///< top-level exchange minus its handler
  std::vector<double> handler_self;    ///< push handler minus nested exchanges
  std::vector<double> typeinfo;        ///< nested TypeInfo exchanges
  std::vector<double> code;            ///< nested Code exchanges
  std::vector<double> publish;         ///< core.publish_assembly
};

[[nodiscard]] SpanDigest digest(const std::vector<Span>& spans);

/// Times `calls` invocations of `fn`, one sample (µs) per call.
[[nodiscard]] std::vector<double> time_each(std::size_t calls, const std::function<void()>& fn);

/// Message payload index of a kind, e.g. kind_index<TypeInfoRequest>().
template <typename T>
[[nodiscard]] std::uint8_t kind_index() {
  static const auto index =
      static_cast<std::uint8_t>(pti::transport::MessagePayload(T{}).index());
  return index;
}

/// FrameCodec encode and decode of each message, µs per call, repeated
/// `rounds` times.
struct FrameReplay {
  std::vector<double> encode;
  std::vector<double> decode;
  std::uint64_t bytes = 0;  ///< framed bytes of one round
};
[[nodiscard]] FrameReplay replay_frames(const std::vector<pti::transport::Message>& messages,
                                        std::size_t rounds);

/// type_description_from_string over each description, µs per call.
[[nodiscard]] std::vector<double> replay_typedesc_parse(const std::vector<std::string>& xml,
                                                        std::size_t rounds);

/// µs per echo exchange over `transport`: the wire floor the same run
/// measures. `prefix` keeps the echo endpoint's name unique.
[[nodiscard]] std::vector<double> time_raw_exchange(pti::transport::Transport& transport,
                                                    const std::string& prefix,
                                                    std::size_t calls);

/// µs per InterestIndex::collect_matches call with `accept`; `matched`
/// receives the subscriber count of the last call.
[[nodiscard]] std::vector<double> time_index_match(
    const pti::transport::InterestIndex& index,
    const std::function<bool(const pti::transport::InterestEntry&)>& accept, std::size_t calls,
    std::size_t& matched);

/// Serializes each object with `encoder` and reads it back with
/// `decoder`, µs per call; `intact` is false if a root came back as
/// something other than an object.
struct PayloadReplay {
  std::vector<double> encode;
  std::vector<double> decode;
  bool intact = true;
};
[[nodiscard]] PayloadReplay replay_payloads(
    pti::serial::ObjectSerializer& encoder, pti::serial::ObjectSerializer& decoder,
    const std::vector<std::shared_ptr<pti::reflect::DynObject>>& objects);

/// `rounds` checks of one pair by a checker with a fresh cache (cold) and
/// by the receiver's own warm checker (cached), µs per check; `agree` is
/// false if the two verdicts ever differ.
struct CheckReplay {
  std::vector<double> cold;
  std::vector<double> cached;
  bool conformant = false;
  bool agree = true;
};
[[nodiscard]] CheckReplay replay_checks(pti::reflect::TypeResolver& resolver,
                                        pti::conform::ConformanceChecker& warm,
                                        const pti::reflect::TypeDescription& source,
                                        const pti::reflect::TypeDescription& target,
                                        std::size_t rounds);

}  // namespace perfbench
