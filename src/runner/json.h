// A minimal JSON document builder for experiment results.
//
// Why not a library: the container bakes in no JSON dependency, and the
// engine needs one non-negotiable property most libraries do not promise -
// deterministic, bit-exact serialization.  Objects preserve insertion order
// and doubles are printed with std::to_chars (shortest round-trip form), so
// two runs that compute bit-identical numbers produce byte-identical JSON.
// That is what lets CI assert that a campaign merged from 8 shards equals
// the 1-shard run by comparing output strings.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tsc::runner {

class Json {
 public:
  enum class Kind { kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject };

  Json() : kind_(Kind::kNull) {}
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}                // NOLINT
  Json(int v) : kind_(Kind::kInt), int_(v) {}                   // NOLINT
  Json(unsigned v) : kind_(Kind::kUint), uint_(v) {}            // NOLINT
  Json(std::int64_t v) : kind_(Kind::kInt), int_(v) {}          // NOLINT
  Json(std::uint64_t v) : kind_(Kind::kUint), uint_(v) {}       // NOLINT
  Json(double v) : kind_(Kind::kDouble), double_(v) {}          // NOLINT
  Json(const char* s) : kind_(Kind::kString), string_(s) {}     // NOLINT
  Json(std::string s)                                           // NOLINT
      : kind_(Kind::kString), string_(std::move(s)) {}

  [[nodiscard]] static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  [[nodiscard]] static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }

  /// Append to an array.  Precondition: is an array.
  Json& push(Json value);

  /// Set an object member (insertion order preserved).  Precondition: is an
  /// object.
  Json& set(std::string key, Json value);

  /// Serialize.  indent < 0: compact single line; otherwise pretty-print
  /// with `indent` spaces per level.
  [[nodiscard]] std::string dump(int indent = -1) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> members_;
};

}  // namespace tsc::runner
