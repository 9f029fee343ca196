/// \file serialization.hpp
/// Token (de)serialization helpers for the application actors: dataflow
/// tokens are raw bytes on SPI channels; the applications move doubles,
/// floats and int32s through them.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/message.hpp"

namespace spi::apps {

using core::Bytes;

inline void append_f64(Bytes& out, double v) {
  std::uint8_t buf[sizeof(double)];
  std::memcpy(buf, &v, sizeof(double));
  out.insert(out.end(), buf, buf + sizeof(double));
}

inline void append_i32(Bytes& out, std::int32_t v) {
  std::uint8_t buf[sizeof(std::int32_t)];
  std::memcpy(buf, &v, sizeof(std::int32_t));
  out.insert(out.end(), buf, buf + sizeof(std::int32_t));
}

[[nodiscard]] inline Bytes pack_f64(std::span<const double> values) {
  Bytes out;
  out.reserve(values.size() * sizeof(double));
  for (double v : values) append_f64(out, v);
  return out;
}

[[nodiscard]] inline Bytes pack_i32(std::span<const std::int32_t> values) {
  Bytes out;
  out.reserve(values.size() * sizeof(std::int32_t));
  for (std::int32_t v : values) append_i32(out, v);
  return out;
}

[[nodiscard]] inline std::vector<double> unpack_f64(std::span<const std::uint8_t> bytes) {
  if (bytes.size() % sizeof(double) != 0)
    throw std::invalid_argument("unpack_f64: byte count not a multiple of 8");
  std::vector<double> out(bytes.size() / sizeof(double));
  if (!out.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());  // empty: both null
  return out;
}

[[nodiscard]] inline std::vector<std::int32_t> unpack_i32(std::span<const std::uint8_t> bytes) {
  if (bytes.size() % sizeof(std::int32_t) != 0)
    throw std::invalid_argument("unpack_i32: byte count not a multiple of 4");
  std::vector<std::int32_t> out(bytes.size() / sizeof(std::int32_t));
  if (!out.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());  // empty: both null
  return out;
}

}  // namespace spi::apps
