//===- perfbench/src/Spans.cpp ----------------------------------*- C++ -*-===//
//
// Part of the SpecSync project (CGO 2004 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "obs/Json.h"

#include <fstream>

namespace perfbench {

bool SpanLog::writeJson(const std::string &Path) const {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  int64_t Zero = Spans.empty() ? 0 : Spans.front().StartNs;
  specsync::obs::JsonWriter W(OS, /*Pretty=*/false);
  W.beginObject();
  W.key("traceEvents");
  W.beginArray();
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    W.beginObject();
    W.keyValue("name", S.Name);
    W.keyValue("ph", "X");
    W.keyValue("pid", 1);
    W.keyValue("tid", 1);
    W.keyValue("ts", static_cast<double>(S.StartNs - Zero) / 1e3);
    W.keyValue("dur", static_cast<double>(S.durNs()) / 1e3);
    W.key("args");
    W.beginObject();
    W.keyValue("id", static_cast<int64_t>(I));
    W.keyValue("parent", static_cast<int64_t>(S.Parent));
    W.keyValue("items", S.Items);
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.endObject();
  OS << "\n";
  return static_cast<bool>(OS);
}

} // namespace perfbench
