#include "text/fuzzy_matcher.h"

#include <cctype>

namespace ceres {

std::string_view StripTrailingYearView(std::string_view normalized) {
  size_t space = normalized.rfind(' ');
  if (space == std::string_view::npos) return normalized;
  std::string_view last = normalized.substr(space + 1);
  if (last.size() != 4) return normalized;
  for (char c : last) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      return normalized;
    }
  }
  return normalized.substr(0, space);
}

std::string StripTrailingYear(std::string_view normalized) {
  return std::string(StripTrailingYearView(normalized));
}

}  // namespace ceres
