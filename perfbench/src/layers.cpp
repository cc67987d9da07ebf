#include "layers.hpp"

#include <unordered_map>

#include "conform/conformance_cache.hpp"
#include "serial/frame_codec.hpp"
#include "serial/typedesc_xml.hpp"

namespace perfbench {

using namespace pti::transport;

SpanDigest digest(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, const Span*> by_id;
  by_id.reserve(spans.size());
  for (const Span& span : spans) by_id[span.id] = &span;
  const auto children = child_micros(spans);
  const auto child = [&](const Span& span) {
    const auto it = children.find(span.id);
    return it == children.end() ? 0.0 : it->second;
  };
  const auto parent_kind = [&](const Span& span, SpanKind kind) {
    const auto it = by_id.find(span.parent);
    return it != by_id.end() && it->second->kind == kind;
  };
  const auto top_level = [&](const Span& span) {
    return span.kind == SpanKind::Exchange && parent_kind(span, SpanKind::CoreSend);
  };

  SpanDigest out;
  for (const Span& span : spans) {
    switch (span.kind) {
      case SpanKind::CoreSend:
        out.sender_self.push_back(span.micros() - child(span));
        break;
      case SpanKind::CorePublish:
        out.publish.push_back(span.micros());
        break;
      case SpanKind::Exchange:
        if (top_level(span)) {
          out.exchange.push_back(span.micros());
          out.wire.push_back(span.micros() - child(span));
        } else if (span.message_kind == kind_index<TypeInfoRequest>()) {
          out.typeinfo.push_back(span.micros());
        } else if (span.message_kind == kind_index<CodeRequest>()) {
          out.code.push_back(span.micros());
        }
        break;
      case SpanKind::AsyncExchange:
        out.async_exchange.push_back(span.micros());
        break;
      case SpanKind::Handler: {
        const auto it = by_id.find(span.parent);
        const bool push_handler =
            it != by_id.end() &&
            (top_level(*it->second) || it->second->kind == SpanKind::AsyncExchange);
        if (push_handler) out.handler_self.push_back(span.micros() - child(span));
        break;
      }
      default:
        break;
    }
  }
  return out;
}

std::vector<double> time_each(std::size_t calls, const std::function<void()>& fn) {
  std::vector<double> samples;
  samples.reserve(calls);
  for (std::size_t i = 0; i < calls; ++i) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(micros(t0, Clock::now()));
  }
  return samples;
}

FrameReplay replay_frames(const std::vector<Message>& messages, std::size_t rounds) {
  const pti::serial::FrameCodec codec;
  FrameReplay out;
  for (const Message& message : messages) out.bytes += codec.encode(message).size();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const Message& message : messages) {
      auto t0 = Clock::now();
      const std::vector<std::uint8_t> frame = codec.encode(message);
      auto t1 = Clock::now();
      const Message decoded = codec.decode(frame);
      auto t2 = Clock::now();
      out.encode.push_back(micros(t0, t1));
      out.decode.push_back(micros(t1, t2));
      if (decoded.payload.index() != message.payload.index()) {
        throw std::runtime_error("frame replay changed the message kind");
      }
    }
  }
  return out;
}

std::vector<double> replay_typedesc_parse(const std::vector<std::string>& xml,
                                          std::size_t rounds) {
  std::vector<double> samples;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const std::string& text : xml) {
      const auto t0 = Clock::now();
      const auto description = pti::serial::type_description_from_string(text);
      samples.push_back(micros(t0, Clock::now()));
      if (description.name().empty()) throw std::runtime_error("parsed an unnamed type");
    }
  }
  return samples;
}

std::vector<double> time_raw_exchange(Transport& transport, const std::string& prefix,
                                      std::size_t calls) {
  const std::string echo = prefix + "Echo";
  transport.attach(echo, [](const Message& request) {
    Message response;
    response.payload = PushAck{true, ""};
    address_response(request, response);
    return response;
  });
  const Message ping{prefix + "Caller", echo, PushAck{true, "ping"}};
  auto samples = time_each(calls, [&] { (void)transport.send(ping); });
  transport.detach(echo);
  return samples;
}

std::vector<double> time_index_match(const InterestIndex& index,
                                     const std::function<bool(const InterestEntry&)>& accept,
                                     std::size_t calls, std::size_t& matched) {
  std::vector<SubscriberId> out;
  std::vector<pti::util::InternedName> scratch;
  auto samples = time_each(calls, [&] {
    out.clear();
    (void)index.collect_matches(accept, out, scratch);
  });
  matched = out.size();
  return samples;
}

PayloadReplay replay_payloads(pti::serial::ObjectSerializer& encoder,
                              pti::serial::ObjectSerializer& decoder,
                              const std::vector<std::shared_ptr<pti::reflect::DynObject>>& objects) {
  PayloadReplay out;
  for (const auto& object : objects) {
    const pti::reflect::Value root(object);
    const auto t0 = Clock::now();
    const auto bytes = encoder.serialize(root);
    const auto t1 = Clock::now();
    const auto back = decoder.deserialize(bytes);
    const auto t2 = Clock::now();
    out.encode.push_back(micros(t0, t1));
    out.decode.push_back(micros(t1, t2));
    out.intact = out.intact && back.kind() == pti::reflect::ValueKind::Object;
  }
  return out;
}

CheckReplay replay_checks(pti::reflect::TypeResolver& resolver,
                          pti::conform::ConformanceChecker& warm,
                          const pti::reflect::TypeDescription& source,
                          const pti::reflect::TypeDescription& target, std::size_t rounds) {
  CheckReplay out;
  for (std::size_t r = 0; r < rounds; ++r) {
    pti::conform::ConformanceCache cache;
    pti::conform::ConformanceChecker checker(resolver, {}, &cache);
    const auto t0 = Clock::now();
    const bool fresh = checker.check(source, target).conformant;
    const auto t1 = Clock::now();
    const bool cached = warm.check(source, target).conformant;
    const auto t2 = Clock::now();
    out.cold.push_back(micros(t0, t1));
    out.cached.push_back(micros(t1, t2));
    out.conformant = fresh;
    out.agree = out.agree && fresh == cached;
  }
  return out;
}

}  // namespace perfbench
