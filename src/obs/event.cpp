#include "obs/event.hpp"

#include "util/json.hpp"
#include "util/log.hpp"

namespace qlec::obs {

Event& Event::with(std::string key, std::int64_t v) & {
  Field f;
  f.key = std::move(key);
  f.kind = FieldKind::kInt;
  f.i = v;
  fields_.push_back(std::move(f));
  return *this;
}

Event& Event::with(std::string key, std::uint64_t v) & {
  Field f;
  f.key = std::move(key);
  f.kind = FieldKind::kUint;
  f.u = v;
  fields_.push_back(std::move(f));
  return *this;
}

Event& Event::with(std::string key, double v) & {
  Field f;
  f.key = std::move(key);
  f.kind = FieldKind::kDouble;
  f.d = v;
  fields_.push_back(std::move(f));
  return *this;
}

Event& Event::with(std::string key, bool v) & {
  Field f;
  f.key = std::move(key);
  f.kind = FieldKind::kBool;
  f.b = v;
  fields_.push_back(std::move(f));
  return *this;
}

Event& Event::with(std::string key, std::string v) & {
  Field f;
  f.key = std::move(key);
  f.kind = FieldKind::kString;
  f.s = std::move(v);
  fields_.push_back(std::move(f));
  return *this;
}

const Event::Field* Event::field(const std::string& key) const noexcept {
  for (const Field& f : fields_)
    if (f.key == key) return &f;
  return nullptr;
}

std::string Event::to_jsonl() const {
  JsonWriter j;
  j.begin_object();
  j.key("type");
  j.value(type_);
  j.key("round");
  j.value(round_);
  for (const Field& f : fields_) {
    j.key(f.key);
    switch (f.kind) {
      case FieldKind::kInt: j.value(static_cast<long long>(f.i)); break;
      case FieldKind::kUint:
        j.value(static_cast<unsigned long long>(f.u));
        break;
      case FieldKind::kDouble: j.value(f.d); break;
      case FieldKind::kBool: j.value(f.b); break;
      case FieldKind::kString: j.value(f.s); break;
    }
  }
  j.end_object();
  return j.str();
}

FileSink::FileSink(const std::string& path) : out_(path) {}

void FileSink::emit(const Event& e) {
  const std::string line = e.to_jsonl();
  const std::lock_guard<std::mutex> lock(mutex_);
  out_ << line << '\n';
}

void FileSink::flush() {
  const std::lock_guard<std::mutex> lock(mutex_);
  out_.flush();
}

LogCapture::LogCapture(EventSink& sink) {
  log::set_writer([&sink](log::Level level, const std::string& message) {
    const char* name = "?";
    switch (level) {
      case log::Level::kDebug: name = "debug"; break;
      case log::Level::kInfo: name = "info"; break;
      case log::Level::kWarn: name = "warn"; break;
      case log::Level::kError: name = "error"; break;
      case log::Level::kOff: name = "off"; break;
    }
    sink.emit(Event("log", -1).with("level", name).with("message", message));
  });
}

LogCapture::~LogCapture() { log::set_writer(nullptr); }

RingBufferSink::RingBufferSink(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void RingBufferSink::emit(const Event& e) {
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
  } else {
    ring_[head_] = e;
    head_ = (head_ + 1) % capacity_;
  }
  ++total_;
}

std::vector<Event> RingBufferSink::snapshot() const {
  // Oldest element sits at head_ (0 until the ring first wraps).
  std::vector<Event> out(ring_.begin() + static_cast<std::ptrdiff_t>(head_),
                         ring_.end());
  out.insert(out.end(), ring_.begin(),
             ring_.begin() + static_cast<std::ptrdiff_t>(head_));
  return out;
}

}  // namespace qlec::obs
