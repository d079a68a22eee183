#ifndef CERES_TEXT_FUZZY_MATCHER_H_
#define CERES_TEXT_FUZZY_MATCHER_H_

#include <string>
#include <string_view>

namespace ceres {

/// Year handling of the fuzzy string matching the paper adopts from
/// Gulhane et al. [18]: a text field with a trailing year token
/// ("Selma (2014)") also matches the year-free name. KB mention matching
/// (KnowledgeBase::MatchMentionsView) retries its lookup with the year
/// stripped; fusion and evaluation compare subject names the same way.

/// View of `normalized` with one trailing 4-digit-year token removed:
/// "selma 2014" -> "selma". Returns the input unchanged when there is no
/// trailing year or nothing would remain.
std::string_view StripTrailingYearView(std::string_view normalized);

/// Copying variant of StripTrailingYearView.
std::string StripTrailingYear(std::string_view normalized);

}  // namespace ceres

#endif  // CERES_TEXT_FUZZY_MATCHER_H_
