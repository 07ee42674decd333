#include "sqldb/query_log.h"

#include <algorithm>

namespace ultraverse::sql {

uint64_t QueryLog::Append(LogEntry entry) {
  entry.index = entries_.size() + 1;
  entries_.push_back(std::move(entry));
  // Epoch after the entry is in place: a reader that observes the new
  // epoch also observes the appended entry (release pairs with epoch()).
  BumpEpoch();
  return entries_.back().index;
}

uint64_t QueryLog::RewrittenFrom(uint64_t generation) const {
  uint64_t from = entries_.size() + 1;
  for (size_t g = generation; g < rewrite_from_.size(); ++g) {
    from = std::min(from, rewrite_from_[g]);
  }
  return from;
}

size_t QueryLog::MySqlStyleBytes() const {
  size_t bytes = 0;
  for (const auto& e : entries_) bytes += e.sql.size() + 60;
  return bytes;
}

}  // namespace ultraverse::sql
