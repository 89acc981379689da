#include "common/strings.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace spate {

void SplitString(std::string_view input, char sep,
                 std::vector<std::string>* out) {
  size_t start = 0;
  for (size_t i = 0; i < input.size(); ++i) {
    if (input[i] == sep) {
      out->emplace_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  out->emplace_back(input.substr(start));
}

std::string JoinStrings(const std::vector<std::string>& parts, char sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out.push_back(sep);
    out += parts[i];
  }
  return out;
}

bool ParseInt64(std::string_view s, int64_t* value) {
  if (s.empty() || s.size() > 20) return false;
  char buf[24];
  memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  long long v = strtoll(buf, &end, 10);
  if (errno != 0 || end != buf + s.size()) return false;
  *value = v;
  return true;
}

bool ParseDouble(std::string_view s, double* value) {
  if (s.empty() || s.size() > 63) return false;
  char buf[64];
  memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  double v = strtod(buf, &end);
  if (errno != 0 || end != buf + s.size()) return false;
  *value = v;
  return true;
}

bool LooksNumeric(std::string_view s) {
  if (s.empty()) return false;
  size_t i = (s[0] == '-') ? 1 : 0;
  if (i == s.size()) return false;
  for (; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
  }
  return true;
}

std::string HumanBytes(uint64_t bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  double v = static_cast<double>(bytes);
  int unit = 0;
  while (v >= 1024.0 && unit < 4) {
    v /= 1024.0;
    ++unit;
  }
  char buf[32];
  snprintf(buf, sizeof(buf), "%.2f %s", v, units[unit]);
  return buf;
}

}  // namespace spate
