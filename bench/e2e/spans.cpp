#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>

namespace hhh::e2e {

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kVantage: return "vantage.run";
    case Layer::kSource: return "pipeline.source";
    case Layer::kPaceWait: return "pipeline.pace_wait";
    case Layer::kIngest: return "core.ingest";
    case Layer::kExtract: return "core.extract";
    case Layer::kReset: return "core.reset";
    case Layer::kSink: return "pipeline.sink";
    case Layer::kEncode: return "wire.encode";
    case Layer::kSend: return "service.send";
    case Layer::kReplay: return "replay.epoch";
    case Layer::kParse: return "wire.parse";
    case Layer::kAlign: return "service.align";
    case Layer::kDecode: return "wire.decode";
    case Layer::kFold: return "service.fold";
    case Layer::kMergeReport: return "service.report";
    case Layer::kGroupFrames: return "service.group_frames";
    case Layer::kAbsorb: return "service.absorb";
    case Layer::kCheckpoint: return "service.checkpoint";
    case Layer::kCount: break;
  }
  return "?";
}

std::int32_t SpanLog::open(Layer layer) {
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{.start_ns = now_ns(),
                        .end_ns = 0,
                        .epoch = epoch_,
                        .parent = stack_.empty() ? -1 : stack_.back(),
                        .layer = layer});
  stack_.push_back(index);
  return index;
}

void SpanLog::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  stack_.pop_back();
}

void LayerTimes::add(const SpanLog& log) {
  const auto& spans = log.spans();
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto layer = static_cast<std::size_t>(spans[i].layer);
    const std::int64_t dur = spans[i].end_ns - spans[i].start_ns;
    ++calls[layer];
    total_s[layer] += static_cast<double>(dur) * 1e-9;
    self_s[layer] += static_cast<double>(dur - child_ns[i]) * 1e-9;
  }
}

void LayerTimes::add(const LayerTimes& other) {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    calls[i] += other.calls[i];
    total_s[i] += other.total_s[i];
    self_s[i] += other.self_s[i];
  }
}

void write_chrome_trace(const std::string& path, const std::vector<const SpanLog*>& logs,
                        const std::vector<std::string>& track_names,
                        const std::vector<CollectorEpochSpan>& collector_epochs) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> out(std::fopen(path.c_str(), "w"),
                                                            &std::fclose);
  if (!out) throw std::runtime_error("cannot open trace output " + path);
  std::FILE* f = out.get();

  // Microsecond timestamps relative to the earliest event keep the numbers
  // short and the viewer's origin at the start of the pass.
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) origin = std::min(origin, s.start_ns);
  }
  for (const auto& e : collector_epochs) origin = std::min(origin, e.first_seen_ns);
  if (origin == std::numeric_limits<std::int64_t>::max()) origin = 0;
  const auto us = [origin](std::int64_t ns) { return static_cast<double>(ns - origin) / 1e3; };

  const int collector_tid = 1000;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  const auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  for (std::size_t i = 0; i < logs.size(); ++i) {
    sep();
    std::fprintf(f,
                 "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":%d,"
                 "\"args\":{\"name\":\"%s\"}}",
                 logs[i]->track(), track_names[i].c_str());
  }
  sep();
  std::fprintf(f,
               "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":%d,"
               "\"args\":{\"name\":\"collector (live)\"}}",
               collector_tid);
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      sep();
      std::fprintf(f,
                   "{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"epoch\":%lld}}",
                   layer_name(s.layer), log->track(), us(s.start_ns),
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<long long>(s.epoch));
    }
  }
  // Epochs overlap on the collector (the next one arrives before the
  // previous is revealed), so they are async events, not nested slices.
  for (const auto& e : collector_epochs) {
    sep();
    std::fprintf(f,
                 "{\"ph\":\"b\",\"cat\":\"epoch\",\"name\":\"collector.epoch\",\"id\":%lld,"
                 "\"pid\":1,\"tid\":%d,\"ts\":%.3f}",
                 static_cast<long long>(e.index), collector_tid, us(e.first_seen_ns));
    sep();
    std::fprintf(f,
                 "{\"ph\":\"e\",\"cat\":\"epoch\",\"name\":\"collector.epoch\",\"id\":%lld,"
                 "\"pid\":1,\"tid\":%d,\"ts\":%.3f}",
                 static_cast<long long>(e.index), collector_tid, us(e.reveal_ns));
  }
  std::fprintf(f, "\n]}\n");
  if (std::ferror(f) != 0) throw std::runtime_error("write failed: " + path);
}

}  // namespace hhh::e2e
