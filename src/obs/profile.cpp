#include "obs/profile.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "core/mutex.hpp"
#include "core/thread_annotations.hpp"
#include "obs/trace.hpp"

namespace leosim::obs {

namespace {

struct Frame {
  size_t parent_path_size;  // the path's length before this frame's name
  int64_t child_ns;         // summed durations of the spans it enclosed
};

struct ThreadProfile {
  std::string path;  // the open frames' names, joined by ';'
  std::vector<Frame> frames;
  std::map<std::string, int64_t> self_ns;  // by path; merged at depth 0
};

thread_local ThreadProfile t_profile;

struct GlobalProfile {
  Mutex mutex;
  std::map<std::string, int64_t> self_ns LEOSIM_GUARDED_BY(mutex);
};

GlobalProfile& Global() {
  static GlobalProfile* profile = new GlobalProfile();  // never destroyed:
  // worker threads may close root spans past static destruction order.
  return *profile;
}

}  // namespace

namespace detail {

void PushProfileFrame(std::string_view name) {
  ThreadProfile& t = t_profile;
  t.frames.push_back(Frame{t.path.size(), 0});
  if (!t.path.empty()) {
    t.path.push_back(';');
  }
  if (name.empty()) {
    t.path.push_back('_');
  }
  // ';' joins frames, ' ' separates stack from count, and control or
  // non-ASCII bytes would break downstream tools.
  for (const char c : name) {
    const unsigned char u = static_cast<unsigned char>(c);
    t.path.push_back(c == ';' || u <= 0x20 || u > 0x7e ? '_' : c);
  }
}

void PopProfileFrame(int64_t duration_ns) {
  ThreadProfile& t = t_profile;
  const Frame frame = t.frames.back();
  t.frames.pop_back();
  t.self_ns[t.path] += duration_ns - frame.child_ns;
  t.path.resize(frame.parent_path_size);
  if (!t.frames.empty()) {
    t.frames.back().child_ns += duration_ns;
    return;
  }
  GlobalProfile& global = Global();
  const MutexLock lock(global.mutex);
  for (const auto& [stack, ns] : t.self_ns) {
    global.self_ns[stack] += ns;
  }
  t.self_ns.clear();
}

}  // namespace detail

void StartProfiling() {
  detail::g_span_mode.fetch_or(detail::kProfileBit, std::memory_order_relaxed);
}

void StopProfiling() {
  detail::g_span_mode.fetch_and(static_cast<uint8_t>(~detail::kProfileBit),
                                std::memory_order_relaxed);
}

std::string CollapsedStacks() {
  std::string out;
  GlobalProfile& global = Global();
  const MutexLock lock(global.mutex);
  for (const auto& [stack, ns] : global.self_ns) {
    if (ns <= 0) {
      continue;  // the grammar's counts are positive
    }
    out.append(stack);
    char tmp[32];
    std::snprintf(tmp, sizeof(tmp), " %lld\n", static_cast<long long>(ns));
    out.append(tmp);
  }
  return out;
}

void ResetProfile() {
  GlobalProfile& global = Global();
  const MutexLock lock(global.mutex);
  global.self_ns.clear();
}

bool ValidateCollapsedStacks(std::string_view text, std::string* why) {
  const auto fail = [why](size_t line_no, const char* what) {
    if (why != nullptr) {
      char tmp[160];
      std::snprintf(tmp, sizeof(tmp), "line %zu: %s", line_no, what);
      *why = tmp;
    }
    return false;
  };
  if (text.empty()) {
    return true;  // an empty profile
  }
  if (text.back() != '\n') {
    return fail(1 + std::count(text.begin(), text.end(), '\n'),
                "missing trailing newline");
  }
  std::string_view prev_stack;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    ++line_no;
    const size_t eol = text.find('\n', pos);
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const size_t space = line.rfind(' ');
    if (space == std::string_view::npos) {
      return fail(line_no, "no space between stack and count");
    }
    const std::string_view stack = line.substr(0, space);
    const std::string_view count = line.substr(space + 1);
    if (stack.empty()) {
      return fail(line_no, "empty stack");
    }
    bool frame_empty = true;
    for (const char c : stack) {
      if (c == ';') {
        if (frame_empty) {
          return fail(line_no, "empty frame");
        }
        frame_empty = true;
        continue;
      }
      const unsigned char u = static_cast<unsigned char>(c);
      if (u <= 0x20 || u > 0x7e) {
        return fail(line_no, "non-printable or space character in frame");
      }
      frame_empty = false;
    }
    if (frame_empty) {
      return fail(line_no, "empty frame");
    }
    if (count.empty() || count.front() == '0') {
      return fail(line_no, "count must be a positive decimal integer");
    }
    for (const char c : count) {
      if (c < '0' || c > '9') {
        return fail(line_no, "count must be a positive decimal integer");
      }
    }
    if (line_no > 1 && !(prev_stack < stack)) {
      return fail(line_no, "stacks not in strictly ascending order");
    }
    prev_stack = stack;
  }
  return true;
}

}  // namespace leosim::obs
