// Minimal JSON reader used to validate the telemetry files the tracer
// emits (test_trace) without adding a dependency. Full RFC 8259 value
// grammar, DOM result; throws PdatError on malformed input. Not a general
// I/O layer — the writers in src/trace/ stay hand-rolled.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/types.h"

namespace pdat::trace::json {

class Value;
using Object = std::map<std::string, Value>;
using Array = std::vector<Value>;

class Value {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Type type = Type::Null;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::shared_ptr<json::Array> array;    // shared_ptr: Value is incomplete here
  std::shared_ptr<json::Object> object;

  bool is_object() const { return type == Type::Object; }
  bool is_array() const { return type == Type::Array; }
  bool is_number() const { return type == Type::Number; }
  bool is_string() const { return type == Type::String; }

  /// Object member access; throws PdatError when absent or not an object.
  const Value& at(const std::string& key) const;
  bool has(const std::string& key) const;
  const json::Array& items() const;
  const json::Object& members() const;
};

/// Parses one JSON document (trailing whitespace allowed, trailing garbage
/// rejected). Throws PdatError with an offset on malformed input.
Value parse(const std::string& text);

}  // namespace pdat::trace::json
