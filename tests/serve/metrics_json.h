// Counter reads from a ServeMetrics JSON scrape, for tests that assert how
// far a counter moved. The serve event counters are process-wide, so a test
// compares a scrape taken after the event with one taken before it instead
// of assuming a fresh count of zero.
#pragma once

#include <cstdint>
#include <string>

#include "common/json.h"

namespace flashgen::serve {

/// Top-level counter `key` ("shed", "errors", ...) of a to_json() scrape.
inline std::uint64_t metrics_count(const std::string& json, const std::string& key) {
  return static_cast<std::uint64_t>(common::json_parse(json).at(key).number());
}

/// Registry counter `name` ("serve.shed", ...) embedded in the same scrape's
/// "process" object; 0 while nothing has registered it.
inline std::uint64_t process_count(const std::string& json, const std::string& name) {
  const common::JsonValue doc = common::json_parse(json);
  const common::JsonValue& counters = doc.at("process").at("counters");
  return counters.has(name) ? static_cast<std::uint64_t>(counters.at(name).number()) : 0;
}

}  // namespace flashgen::serve
