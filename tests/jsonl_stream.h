// The JSONL a traced run writes: a streaming Tracer over a JsonlStreamSink,
// read back from disk. Traced benches merge each task's tracer into such a
// tracer (bench::maybe_stream_sinks), so tests that pin trace bytes or
// load a trace back go through the same write path.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "obs/sink.h"
#include "obs/trace.h"

namespace dcs::test {

/// A streaming Tracer over a JsonlStreamSink that writes
/// `<temp dir>/<pid>_<name>.jsonl` (the process id keeps the tests ctest
/// runs concurrently apart). The file is removed with the stream.
class JsonlStream {
 public:
  explicit JsonlStream(const std::string& name)
      : path_(::testing::TempDir() + std::to_string(::getpid()) + "_" + name +
              ".jsonl"),
        sink_(path_),
        tracer_(&sink_) {}
  JsonlStream(const JsonlStream&) = delete;
  JsonlStream& operator=(const JsonlStream&) = delete;
  ~JsonlStream() { std::remove(path_.c_str()); }

  [[nodiscard]] obs::Tracer& tracer() noexcept { return tracer_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Finalizes the sink and returns every byte it wrote.
  [[nodiscard]] std::string bytes() {
    sink_.finalize();
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

 private:
  std::string path_;
  obs::JsonlStreamSink sink_;
  obs::Tracer tracer_;
};

/// The bytes `tracer` streams when merged whole into a JsonlStream.
inline std::string streamed_jsonl(obs::Tracer&& tracer,
                                  const std::string& name) {
  JsonlStream stream(name);
  stream.tracer().merge_from(std::move(tracer));
  return stream.bytes();
}

}  // namespace dcs::test
