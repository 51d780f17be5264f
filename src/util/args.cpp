#include "util/args.h"

#include <cstdlib>

#include "util/error.h"

namespace lcrb {

Args::Args(int argc, const char* const* argv) {
  std::vector<std::string> v;
  v.reserve(static_cast<std::size_t>(argc > 0 ? argc - 1 : 0));
  for (int i = 1; i < argc; ++i) v.emplace_back(argv[i]);
  parse(v);
}

Args::Args(const std::vector<std::string>& argv) { parse(argv); }

void Args::parse(const std::vector<std::string>& argv) {
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& a = argv[i];
    if (a.rfind("--", 0) != 0) {
      positional_.push_back(a);
      continue;
    }
    std::string name = a.substr(2);
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      values_[name.substr(0, eq)] = name.substr(eq + 1);
    } else if (i + 1 < argv.size() && argv[i + 1].rfind("--", 0) != 0) {
      values_[name] = argv[++i];
    } else {
      values_[name] = "true";  // bare flag
    }
  }
}

bool Args::has(const std::string& name) const { return values_.count(name) > 0; }

std::string Args::get_string(const std::string& name,
                             const std::string& def) const {
  const auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

namespace {

// Whole-token numeric parses: std::stoll("5abc") would return 5, so the end
// position must reach the end of the text. `what` names the flag or env var.
std::int64_t parse_int(const std::string& text, const std::string& what) {
  std::size_t end = 0;
  try {
    const long long v = std::stoll(text, &end);
    if (end == text.size()) return v;
  } catch (const std::exception&) {
  }
  throw Error(what + " expects an integer, got '" + text + "'");
}

double parse_double(const std::string& text, const std::string& what) {
  std::size_t end = 0;
  try {
    const double v = std::stod(text, &end);
    if (end == text.size()) return v;
  } catch (const std::exception&) {
  }
  throw Error(what + " expects a number, got '" + text + "'");
}

}  // namespace

std::int64_t Args::get_int(const std::string& name, std::int64_t def) const {
  const auto it = values_.find(name);
  return it == values_.end() ? def : parse_int(it->second, "flag --" + name);
}

double Args::get_double(const std::string& name, double def) const {
  const auto it = values_.find(name);
  return it == values_.end() ? def
                             : parse_double(it->second, "flag --" + name);
}

bool Args::get_bool(const std::string& name, bool def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  return it->second != "false" && it->second != "0";
}

double Args::get_double_env(const std::string& name, const std::string& env,
                            double def) const {
  if (has(name)) return get_double(name, def);
  const char* v = std::getenv(env.c_str());
  return v != nullptr ? parse_double(v, "env " + env) : def;
}

std::int64_t Args::get_int_env(const std::string& name, const std::string& env,
                               std::int64_t def) const {
  if (has(name)) return get_int(name, def);
  const char* v = std::getenv(env.c_str());
  return v != nullptr ? parse_int(v, "env " + env) : def;
}

}  // namespace lcrb
