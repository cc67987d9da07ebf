#include "recording_transport.hpp"

#include <exception>
#include <utility>

namespace perfbench {

using pti::transport::Message;

namespace {
/// (id, root) of the spans open on this thread, innermost last.
thread_local std::vector<std::pair<std::uint64_t, std::uint64_t>> open_spans;

std::uint8_t kind_of(const Message& message) {
  return static_cast<std::uint8_t>(message.payload.index());
}
}  // namespace

Tracer::Scope::Scope(Tracer* tracer, SpanKind kind, std::uint8_t message_kind,
                     std::uint64_t parent, std::uint64_t root)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.id = tracer_->next_id();
  span_.kind = kind;
  span_.message_kind = message_kind;
  if (parent == 0) std::tie(parent, root) = current();
  span_.parent = parent;
  span_.root = parent == 0 ? span_.id : root;
  open_spans.emplace_back(span_.id, span_.root);
  span_.start = Clock::now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end = Clock::now();
  open_spans.pop_back();
  tracer_->record(span_);
}

void Tracer::record(const Span& span) {
  std::scoped_lock lock(mutex_);
  spans_.push_back(span);
}

std::pair<std::uint64_t, std::uint64_t> Tracer::current() noexcept {
  return open_spans.empty() ? std::pair<std::uint64_t, std::uint64_t>{0, 0}
                            : open_spans.back();
}

std::vector<Span> Tracer::take() {
  std::scoped_lock lock(mutex_);
  return std::exchange(spans_, {});
}

RecordingTransport::RecordingTransport(std::unique_ptr<pti::transport::Transport> inner,
                                       Tracer& tracer)
    : inner_(std::move(inner)), tracer_(tracer) {}

void RecordingTransport::attach(std::string_view name, Handler handler) {
  inner_->attach(name, [this, handler = std::move(handler)](const Message& request) {
    observe(request);
    const auto [parent, root] = cause_of(direction(request));
    Tracer::Scope span(&tracer_, SpanKind::Handler, kind_of(request), parent, root);
    return handler(request);
  });
}

Message RecordingTransport::send(const Message& request) {
  observe(request);
  const std::string key = direction(request);
  Message response;
  {
    Tracer::Scope span(&tracer_, SpanKind::Exchange, kind_of(request));
    open_exchange(key, span.id(), span.root());
    try {
      response = inner_->send(request);
    } catch (...) {
      close_exchange(key, span.id());
      throw;
    }
    close_exchange(key, span.id());
  }
  observe(response);
  return response;
}

std::future<Message> RecordingTransport::send_async(Message request) {
  auto promise = std::make_shared<std::promise<Message>>();
  auto future = promise->get_future();
  send_async(std::move(request), [promise](Message response, std::exception_ptr error) {
    if (error) {
      promise->set_exception(error);
    } else {
      promise->set_value(std::move(response));
    }
  });
  return future;
}

void RecordingTransport::send_async(Message request, SendCallback on_complete) {
  observe(request);
  Span span;
  span.id = tracer_.next_id();
  span.kind = SpanKind::AsyncExchange;
  span.message_kind = kind_of(request);
  std::tie(span.parent, span.root) = Tracer::current();
  if (span.parent == 0) span.root = span.id;
  if (const auto* batch = std::get_if<pti::transport::SessionBatch>(&request.payload)) {
    ++batch_frames_;
    batch_entries_ += batch->entries.size();
  }
  std::string key = direction(request);
  open_exchange(key, span.id, span.root);
  span.start = Clock::now();
  inner_->send_async(std::move(request),
                     [this, span, key = std::move(key), on_complete = std::move(on_complete)](
                         Message response, std::exception_ptr error) mutable {
                       span.end = Clock::now();
                       close_exchange(key, span.id);
                       tracer_.record(span);
                       if (!error) observe(response);
                       on_complete(std::move(response), error);
                     });
}

void RecordingTransport::open_exchange(const std::string& key, std::uint64_t id,
                                       std::uint64_t root) {
  std::scoped_lock lock(open_mutex_);
  open_[key].emplace_back(id, root);
}

void RecordingTransport::close_exchange(const std::string& key, std::uint64_t id) {
  std::scoped_lock lock(open_mutex_);
  auto& stack = open_[key];
  for (auto it = stack.begin(); it != stack.end(); ++it) {
    if (it->first == id) {
      stack.erase(it);
      break;
    }
  }
}

std::pair<std::uint64_t, std::uint64_t> RecordingTransport::cause_of(const std::string& key) {
  std::scoped_lock lock(open_mutex_);
  const auto it = open_.find(key);
  if (it == open_.end() || it->second.empty()) return {0, 0};
  return it->second.back();
}

void RecordingTransport::observe(const Message& message) {
  std::scoped_lock lock(sample_mutex_);
  if (samples_.size() < kSampleCap) samples_.push_back(message);
}

std::vector<Message> RecordingTransport::samples() const {
  std::scoped_lock lock(sample_mutex_);
  return samples_;
}

std::map<std::uint64_t, double> child_micros(const std::vector<Span>& spans) {
  std::map<std::uint64_t, double> children;
  for (const Span& span : spans) {
    if (span.parent != 0) children[span.parent] += span.micros();
  }
  return children;
}

}  // namespace perfbench
