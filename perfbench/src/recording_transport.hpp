// The traced run's instrumentation, kept entirely on the benchmark side:
// a span recorder and a transport::Transport decorator that records a span
// per exchange and per handler execution, plus a bounded sample of the
// messages it forwarded (for the FrameCodec replay).
//
// The decorator only observes: every call is forwarded unchanged to the
// wrapped transport, so the program under measurement sends the same
// messages and bytes with or without it (pinned by `--selftest`).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "transport/transport.hpp"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  CoreSend,       ///< InteropRuntime::send made by the benchmark
  CoreSendAsync,  ///< InteropRuntime::send_async made by the benchmark
  CorePublish,    ///< InteropRuntime::publish_assembly
  CoreSubscribe,  ///< InteropRuntime::subscribe
  Exchange,       ///< Transport::send, request to response
  AsyncExchange,  ///< Transport::send_async call to its callback
  Handler,        ///< receiving endpoint's handler execution
  SimRun,         ///< sim::Scenario::run
};

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span
  std::uint64_t root = 0;    ///< shared by every span of one push
  SpanKind kind = SpanKind::CoreSend;
  std::uint8_t message_kind = 0xFF;  ///< Message payload index, 0xFF if none
  Clock::time_point start;
  Clock::time_point end;

  [[nodiscard]] double micros() const { return perfbench::micros(start, end); }
};

/// Collects spans in memory; they are read out after the timed phase.
/// Parents come from a per-thread stack of open spans, or are given
/// explicitly when the cause ran on another thread.
class Tracer {
 public:
  /// RAII span on the calling thread's stack.
  class Scope {
   public:
    Scope(Tracer* tracer, SpanKind kind, std::uint8_t message_kind = 0xFF,
          std::uint64_t parent = 0, std::uint64_t root = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }
    [[nodiscard]] std::uint64_t root() const noexcept { return span_.root; }

   private:
    Tracer* tracer_;
    Span span_;
  };

  Tracer() { spans_.reserve(1u << 16); }

  [[nodiscard]] std::uint64_t next_id() noexcept { return ++last_id_; }
  void record(const Span& span);
  /// Innermost open span on this thread as (id, root); (0, 0) if none.
  [[nodiscard]] static std::pair<std::uint64_t, std::uint64_t> current() noexcept;
  [[nodiscard]] std::vector<Span> take();

 private:
  std::atomic<std::uint64_t> last_id_{0};
  std::mutex mutex_;  ///< guards spans_
  std::vector<Span> spans_;
};

class RecordingTransport final : public pti::transport::Transport {
 public:
  static constexpr std::size_t kSampleCap = 1024;

  RecordingTransport(std::unique_ptr<pti::transport::Transport> inner, Tracer& tracer);

  void attach(std::string_view name, Handler handler) override;
  void detach(std::string_view name) override { inner_->detach(name); }
  [[nodiscard]] bool is_attached(std::string_view name) const noexcept override {
    return inner_->is_attached(name);
  }
  pti::transport::Message send(const pti::transport::Message& request) override;
  [[nodiscard]] std::future<pti::transport::Message> send_async(
      pti::transport::Message request) override;
  void send_async(pti::transport::Message request, SendCallback on_complete) override;

  void set_default_link(const pti::transport::LinkConfig& config) noexcept override {
    inner_->set_default_link(config);
  }
  void set_link(std::string_view from, std::string_view to,
                const pti::transport::LinkConfig& config) override {
    inner_->set_link(from, to, config);
  }
  void set_default_peer_quota(const pti::transport::PeerQuotaConfig& config) override {
    inner_->set_default_peer_quota(config);
  }
  void set_peer_quota(std::string_view peer,
                      const pti::transport::PeerQuotaConfig& config) override {
    inner_->set_peer_quota(peer, config);
  }
  [[nodiscard]] pti::transport::PeerQuotaTable* peer_quotas() noexcept override {
    return inner_->peer_quotas();
  }
  [[nodiscard]] const pti::transport::NetStats& stats() const noexcept override {
    return inner_->stats();
  }
  void reset_stats() noexcept override { inner_->reset_stats(); }
  [[nodiscard]] pti::util::SimClock& clock() noexcept override { return inner_->clock(); }

  /// Forwarded messages (requests and responses, in arrival order), the
  /// first kSampleCap of them.
  [[nodiscard]] std::vector<pti::transport::Message> samples() const;
  /// SessionBatch requests seen and the entries they carried.
  [[nodiscard]] std::uint64_t batch_frames() const noexcept { return batch_frames_; }
  [[nodiscard]] std::uint64_t batch_entries() const noexcept { return batch_entries_; }

 private:
  /// Open exchanges keyed by direction, so a handler running on another
  /// thread finds the exchange that caused it.
  static std::string direction(const pti::transport::Message& m) {
    return m.sender + '\n' + m.recipient;
  }
  void open_exchange(const std::string& key, std::uint64_t id, std::uint64_t root);
  void close_exchange(const std::string& key, std::uint64_t id);
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> cause_of(const std::string& key);
  void observe(const pti::transport::Message& message);

  std::unique_ptr<pti::transport::Transport> inner_;
  Tracer& tracer_;

  std::mutex open_mutex_;  ///< guards open_
  std::map<std::string, std::vector<std::pair<std::uint64_t, std::uint64_t>>> open_;

  mutable std::mutex sample_mutex_;  ///< guards samples_
  std::vector<pti::transport::Message> samples_;
  std::atomic<std::uint64_t> batch_frames_{0};
  std::atomic<std::uint64_t> batch_entries_{0};
};

/// Self time of every span: its duration minus its children's durations.
/// Children are found through the `parent` links.
std::map<std::uint64_t, double> child_micros(const std::vector<Span>& spans);

}  // namespace perfbench
