#ifndef ULTRAVERSE_UTIL_SHARED_HISTORY_H_
#define ULTRAVERSE_UTIL_SHARED_HISTORY_H_

#include <cstddef>
#include <memory>
#include <vector>

namespace ultraverse {

/// Elements per SharedHistory chunk (a power of two, so indexing is a
/// shift and a mask).
inline constexpr size_t kHistoryChunkShift = 8;
inline constexpr size_t kHistoryChunkSize = size_t{1} << kHistoryChunkShift;

/// Read-only random-access view over a history-aligned sequence (log
/// entries, per-entry analysis, footprints): either one contiguous array
/// or the chunks of a SharedHistory. It does not own what it views and is
/// cheap to copy; the viewed storage must outlive it.
template <typename T>
class HistoryView {
 public:
  HistoryView() = default;
  /// Implicit, so call sites holding a plain vector pass it unchanged.
  HistoryView(const std::vector<T>& v)  // NOLINT(google-explicit-constructor)
      : flat_(v.data()), size_(v.size()) {}
  HistoryView(std::vector<T>&&) = delete;  // would view a dying temporary
  HistoryView(const T* const* chunks, size_t size)
      : chunks_(chunks), size_(size) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](size_t i) const {
    return chunks_ ? chunks_[i >> kHistoryChunkShift]
                            [i & (kHistoryChunkSize - 1)]
                   : flat_[i];
  }

 private:
  const T* flat_ = nullptr;
  const T* const* chunks_ = nullptr;
  size_t size_ = 0;
};

/// Immutable, structurally shared history (DESIGN.md §14). Elements live
/// in chunks of kHistoryChunkSize aligned to history positions; Extend()
/// derives a longer history that shares every chunk of this one's
/// unchanged prefix and copies only the elements past it, so a snapshot
/// rebuilt after k commits costs O(k) element copies plus one pointer per
/// chunk, whatever the history length.
///
/// Thread safety: a history never changes the elements it covers, so any
/// number of threads may read one concurrently. Extend() may append to a
/// chunk in place — past the end of every history sharing it — so calls to
/// Extend() on histories that share chunks must be serialized.
template <typename T>
class SharedHistory {
 public:
  size_t size() const { return size_; }
  HistoryView<T> view() const { return {data_.data(), size_}; }
  const T& operator[](size_t i) const { return view()[i]; }

  /// A history whose first `keep` (≤ min(size(), n)) elements are this one's,
  /// shared rather than copied, followed by copies of src[keep, n). The
  /// chunk holding position `keep` is appended to in place when no history
  /// has written past `keep` in it yet; otherwise its first
  /// keep % kHistoryChunkSize elements are copied into a fresh chunk (the
  /// case after an in-place rewrite of the source). Adds the number of
  /// element copies made to `*copied`.
  template <typename Source>
  SharedHistory Extend(size_t keep, const Source& src, size_t n,
                       size_t* copied) const {
    SharedHistory out;
    const size_t whole = keep >> kHistoryChunkShift;
    const size_t partial = keep & (kHistoryChunkSize - 1);
    out.chunks_.assign(chunks_.begin(), chunks_.begin() + whole);
    if (partial != 0) {
      std::shared_ptr<Chunk> tail = chunks_[whole];
      if (tail->items.size() != partial) {
        auto fresh = std::make_shared<Chunk>();
        fresh->items.assign(tail->items.begin(),
                            tail->items.begin() + partial);
        *copied += partial;
        tail = std::move(fresh);
      }
      out.chunks_.push_back(std::move(tail));
    }
    for (size_t i = keep; i < n; ++i) {
      if ((i & (kHistoryChunkSize - 1)) == 0) {
        out.chunks_.push_back(std::make_shared<Chunk>());
      }
      out.chunks_.back()->items.push_back(src[i]);
    }
    *copied += n - keep;
    out.size_ = n;
    out.data_.reserve(out.chunks_.size());
    for (const auto& c : out.chunks_) out.data_.push_back(c->items.data());
    return out;
  }

 private:
  struct Chunk {
    Chunk() { items.reserve(kHistoryChunkSize); }
    /// Never reallocates (capacity is reserved up front), so the element
    /// addresses views hold stay valid while Extend() appends.
    std::vector<T> items;
  };
  std::vector<std::shared_ptr<Chunk>> chunks_;
  std::vector<const T*> data_;  // chunks_[c]->items.data(), for views
  size_t size_ = 0;
};

}  // namespace ultraverse

#endif  // ULTRAVERSE_UTIL_SHARED_HISTORY_H_
