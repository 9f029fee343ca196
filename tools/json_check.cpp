/// \file json_check.cpp
/// Tiny strict JSON validator for the tooling ctest tier: parses the
/// whole input (a file argument, or stdin with no argument / "-") and
/// exits 0 iff it is one well-formed JSON value with nothing but
/// whitespace after it. The grammar is the codec's (src/obs/json.hpp), so
/// the in-process test suites validate exporter output the same way.
///
///   spi_compile --metrics=json system.spi | json_check
///   json_check metrics.json
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/json.hpp"

int main(int argc, char** argv) {
  if (argc > 2) {
    std::fprintf(stderr, "usage: json_check [file | -]\n");
    return 2;
  }
  std::string text;
  const std::string path = argc == 2 ? argv[1] : "-";
  if (path == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    text = buffer.str();
  } else {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "json_check: cannot open '%s'\n", path.c_str());
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }

  const std::string error = spi::obs::json::validate(text);
  if (!error.empty()) {
    std::fprintf(stderr, "json_check: %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  return 0;
}
