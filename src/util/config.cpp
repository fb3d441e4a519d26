#include "util/config.h"

#include <fstream>
#include <sstream>

#include "util/error.h"
#include "util/strings.h"
#include "util/units.h"

namespace mg::util {

bool ConfigSection::has(std::string_view key) const { return find(key) != nullptr; }

const std::string* ConfigSection::find(std::string_view key) const {
  const std::string lowered = toLower(key);
  for (const auto& [k, v] : entries_) {
    if (k == lowered) return &v;
  }
  return nullptr;
}

const std::string& ConfigSection::getString(std::string_view key) const {
  const std::string* v = find(key);
  if (!v) {
    throw ConfigError("missing key '" + std::string(key) + "' in section [" + type_ + " " + name_ + "]");
  }
  return *v;
}

double ConfigSection::getDouble(std::string_view key) const {
  const std::string& s = getString(key);
  if (const std::optional<double> v = parseDouble(s)) return *v;
  throw ConfigError("key '" + std::string(key) + "' = '" + s + "' is not a number");
}

std::int64_t ConfigSection::getInt(std::string_view key) const {
  const std::string& s = getString(key);
  if (const std::optional<std::int64_t> v = parseInt(s)) return *v;
  throw ConfigError("key '" + std::string(key) + "' = '" + s + "' is not an integer");
}

bool ConfigSection::getBool(std::string_view key) const {
  const std::string s = toLower(getString(key));
  if (s == "true" || s == "yes" || s == "on" || s == "1") return true;
  if (s == "false" || s == "no" || s == "off" || s == "0") return false;
  throw ConfigError("key '" + std::string(key) + "' = '" + s + "' is not a boolean");
}

namespace {

/// Run a unit parser on a key's value; a ParseError gains the key and section
/// so the user can find the bad line.
template <class Parse>
auto parseKey(const ConfigSection& sec, std::string_view key, Parse parse) {
  const std::string& value = sec.getString(key);
  try {
    return parse(value);
  } catch (const ParseError& e) {
    std::string_view why = e.what();
    constexpr std::string_view kPrefix = "parse error: ";
    if (why.starts_with(kPrefix)) why.remove_prefix(kPrefix.size());
    throw ParseError(format("key '%s' in section [%s %s]: %s", std::string(key).c_str(),
                            sec.type().c_str(), sec.name().c_str(), std::string(why).c_str()));
  }
}

}  // namespace

double ConfigSection::getBandwidth(std::string_view key) const {
  return parseKey(*this, key, parseBandwidth);
}
double ConfigSection::getTime(std::string_view key) const {
  return parseKey(*this, key, parseTime);
}
std::int64_t ConfigSection::getSize(std::string_view key) const {
  return parseKey(*this, key, parseSize);
}
double ConfigSection::getComputeRate(std::string_view key) const {
  return parseKey(*this, key, parseComputeRate);
}

std::string ConfigSection::getString(std::string_view key, std::string_view fallback) const {
  const std::string* v = find(key);
  return v ? *v : std::string(fallback);
}
double ConfigSection::getDouble(std::string_view key, double fallback) const {
  return has(key) ? getDouble(key) : fallback;
}
std::int64_t ConfigSection::getInt(std::string_view key, std::int64_t fallback) const {
  return has(key) ? getInt(key) : fallback;
}
bool ConfigSection::getBool(std::string_view key, bool fallback) const {
  return has(key) ? getBool(key) : fallback;
}

std::vector<std::string> ConfigSection::keys() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [k, v] : entries_) out.push_back(k);
  return out;
}

void ConfigSection::set(std::string_view key, std::string_view value) {
  const std::string lowered = toLower(key);
  for (const auto& [k, v] : entries_) {
    if (k == lowered) {
      throw ConfigError("duplicate key '" + lowered + "' in section [" + type_ + " " + name_ + "]");
    }
  }
  entries_.emplace_back(lowered, std::string(value));
}

Config Config::parse(std::string_view text) {
  Config cfg;
  ConfigSection* current = nullptr;
  int lineno = 0;
  std::istringstream in{std::string(text)};
  std::string raw;
  while (std::getline(in, raw)) {
    ++lineno;
    std::string_view line = raw;
    // Strip comments (not inside values: this format has no quoting).
    if (size_t pos = line.find_first_of("#;"); pos != std::string_view::npos) {
      line = line.substr(0, pos);
    }
    line = trim(line);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        throw ParseError(format("line %d: unterminated section header", lineno));
      }
      auto inner = trim(line.substr(1, line.size() - 2));
      auto parts = splitWhitespace(inner);
      if (parts.empty() || parts.size() > 2) {
        throw ParseError(format("line %d: section header must be [type] or [type name]", lineno));
      }
      std::string type = toLower(parts[0]);
      std::string name = parts.size() == 2 ? parts[1] : "";
      current = &cfg.addSection(std::move(type), std::move(name));
      continue;
    }
    size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw ParseError(format("line %d: expected key = value", lineno));
    }
    if (!current) {
      throw ParseError(format("line %d: key outside any section", lineno));
    }
    auto key = trim(line.substr(0, eq));
    auto value = trim(line.substr(eq + 1));
    if (key.empty()) throw ParseError(format("line %d: empty key", lineno));
    current->set(key, value);
  }
  return cfg;
}

Config Config::parseFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open config file '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str());
}

std::vector<const ConfigSection*> Config::sectionsOfType(std::string_view type) const {
  std::vector<const ConfigSection*> out;
  const std::string lowered = toLower(type);
  for (const auto& s : sections_) {
    if (s.type() == lowered) out.push_back(&s);
  }
  return out;
}

const ConfigSection& Config::section(std::string_view type, std::string_view name) const {
  const ConfigSection* s = findSection(type, name);
  if (!s) {
    throw ConfigError("no section [" + std::string(type) + " " + std::string(name) + "]");
  }
  return *s;
}

const ConfigSection* Config::findSection(std::string_view type, std::string_view name) const {
  const std::string lowered = toLower(type);
  for (const auto& s : sections_) {
    if (s.type() == lowered && s.name() == name) return &s;
  }
  return nullptr;
}

ConfigSection& Config::addSection(std::string type, std::string name) {
  for (const auto& s : sections_) {
    if (s.type() == type && s.name() == name && !name.empty()) {
      throw ConfigError("duplicate section [" + type + " " + name + "]");
    }
  }
  sections_.emplace_back(std::move(type), std::move(name));
  return sections_.back();
}

}  // namespace mg::util
