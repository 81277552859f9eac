#include "obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace sel::obs::json {

namespace {

[[noreturn]] void type_error(const char* want, Value::Type got) {
  throw std::runtime_error(std::string("json: expected ") + want +
                           ", got type " +
                           std::to_string(static_cast<int>(got)));
}

/// Integral doubles inside the exact range print as integers so counters
/// survive a round-trip byte-identically.
void format_number(std::string& out, double d) {
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    out += buf;
    return;
  }
  if (!std::isfinite(d)) {
    // JSON has no Inf/NaN; emit null like most encoders.
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  out += buf;
}

}  // namespace

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// -- accessors ---------------------------------------------------------------

double Value::as_double() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  return num_;
}

std::int64_t Value::as_int64() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  return static_cast<std::int64_t>(num_);
}

const std::string& Value::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return str_;
}

const Value::Array& Value::as_array() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return arr_;
}

const Value::Object& Value::as_object() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return obj_;
}

const Value& Value::at(std::string_view key) const {
  const auto& obj = as_object();
  const auto it = obj.find(std::string(key));
  if (it == obj.end()) {
    throw std::runtime_error("json: missing key '" + std::string(key) + "'");
  }
  return it->second;
}

bool Value::contains(std::string_view key) const noexcept {
  return type_ == Type::kObject && obj_.find(std::string(key)) != obj_.end();
}

// -- writer ------------------------------------------------------------------

void Value::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const auto newline_pad = [&](int d) {
    if (!pretty) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(d),
               ' ');
  };
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: format_number(out, num_); break;
    case Type::kString:
      out += '"';
      out += escape(str_);
      out += '"';
      break;
    case Type::kArray: {
      if (arr_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      bool first = true;
      for (const auto& v : arr_) {
        if (!first) out += ',';
        first = false;
        newline_pad(depth + 1);
        v.dump_to(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      if (obj_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out += ',';
        first = false;
        newline_pad(depth + 1);
        out += '"';
        out += escape(k);
        out += "\":";
        if (pretty) out += ' ';
        v.dump_to(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += '}';
      break;
    }
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

}  // namespace sel::obs::json
