// A CPU sampler to LD_PRELOAD into any program (scripts/profile.sh builds
// and uses it). SIGPROF from setitimer(ITIMER_PROF) fires per slice of
// process CPU time; the handler stores the interrupted thread's stack
// with backtrace(). At exit every frame is named with dladdr, and the
// top symbols by self samples (the interrupted function) and by
// inclusive samples (anywhere on the stack) go to $SAMPLER_OUT (default
// stderr).
//
// The timer asks for a sample every 1 ms of CPU time, but the kernel's
// tick bounds the interval from below: on a 250 Hz kernel samples arrive
// about every 4 ms of CPU time.
//
// Environment:
//   SAMPLER_FILTER  comma-separated substrings; only samples whose stack
//                   holds a symbol containing one of them are counted.
//
// dladdr sees only the dynamic symbol table: link the program with
// -rdynamic. Functions with internal linkage (static, anonymous
// namespace) are not in it and are credited to the exported symbol
// before them; inlined functions count as their caller.
#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace {

constexpr int kDepth = 48;
// The handler frame and the kernel's signal trampoline precede the
// interrupted function on every stack.
constexpr int kSkip = 2;
constexpr size_t kMaxSamples = size_t{1} << 16;
constexpr long kIntervalUs = 1000;
constexpr size_t kTopRows = 25;

struct Sample {
  int depth;
  void* pc[kDepth];
};

Sample* g_samples = nullptr;
std::atomic<size_t> g_count{0};

void OnProf(int) {
  const size_t i = g_count.fetch_add(1, std::memory_order_relaxed);
  if (i >= kMaxSamples) return;
  const int saved_errno = errno;
  g_samples[i].depth = backtrace(g_samples[i].pc, kDepth);
  errno = saved_errno;
}

std::string Name(void* pc) {
  Dl_info info;
  if (dladdr(pc, &info) == 0) return "[unknown]";
  if (info.dli_sname == nullptr) {
    const char* module =
        info.dli_fname ? strrchr(info.dli_fname, '/') : nullptr;
    return std::string("[") + (module ? module + 1 : "?") + "]";
  }
  int status = 0;
  char* demangled = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr,
                                        &status);
  std::string name = status == 0 ? demangled : info.dli_sname;
  free(demangled);
  return name;
}

void Print(FILE* out, const char* title, const std::map<std::string, int>& by,
           int kept) {
  std::vector<std::pair<int, std::string>> rows;
  for (const auto& [name, n] : by) rows.emplace_back(n, name);
  std::sort(rows.rbegin(), rows.rend());
  fprintf(out, "\n%s\n", title);
  for (size_t i = 0; i < rows.size() && i < kTopRows; ++i) {
    fprintf(out, "%6.1f%% %7d  %.150s\n", 100.0 * rows[i].first / kept,
            rows[i].first, rows[i].second.c_str());
  }
}

__attribute__((constructor)) void StartSampling() {
  void* mem = mmap(nullptr, kMaxSamples * sizeof(Sample),
                   PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return;
  g_samples = static_cast<Sample*>(mem);
  void* warm[4];
  backtrace(warm, 4);  // loads the unwinder outside the signal handler
  struct sigaction action;
  memset(&action, 0, sizeof(action));
  action.sa_handler = OnProf;
  action.sa_flags = SA_RESTART;
  sigaction(SIGPROF, &action, nullptr);
  itimerval timer;
  timer.it_interval.tv_sec = 0;
  timer.it_interval.tv_usec = kIntervalUs;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((destructor)) void Report() {
  if (g_samples == nullptr) return;
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  const size_t total = std::min(g_count.load(), kMaxSamples);
  std::vector<std::string> filters;
  if (const char* f = getenv("SAMPLER_FILTER")) {
    std::string list = f;
    for (size_t pos = 0; pos <= list.size();) {
      size_t comma = list.find(',', pos);
      if (comma == std::string::npos) comma = list.size();
      if (comma > pos) filters.push_back(list.substr(pos, comma - pos));
      pos = comma + 1;
    }
  }
  std::map<void*, std::string> names;
  std::map<std::string, int> self, inclusive;
  int kept = 0;
  for (size_t i = 0; i < total; ++i) {
    const Sample& s = g_samples[i];
    if (s.depth <= kSkip) continue;
    std::vector<const std::string*> stack;
    for (int f = kSkip; f < s.depth; ++f) {
      auto it = names.find(s.pc[f]);
      if (it == names.end()) it = names.emplace(s.pc[f], Name(s.pc[f])).first;
      stack.push_back(&it->second);
    }
    bool keep = filters.empty();
    for (size_t k = 0; !keep && k < filters.size(); ++k) {
      for (const std::string* name : stack) {
        if (name->find(filters[k]) != std::string::npos) keep = true;
      }
    }
    if (!keep) continue;
    ++kept;
    ++self[*stack.front()];
    std::set<std::string> seen;  // a recursive symbol counts once
    for (const std::string* name : stack) seen.insert(*name);
    for (const std::string& name : seen) ++inclusive[name];
  }
  FILE* out = stderr;
  if (const char* path = getenv("SAMPLER_OUT")) {
    if (FILE* f = fopen(path, "w")) out = f;
  }
  fprintf(out, "samples: %zu taken, %d kept%s\n", total, kept,
          filters.empty() ? "" : " (filtered)");
  if (kept > 0) {
    Print(out, "self (the interrupted function)", self, kept);
    Print(out, "inclusive (anywhere on the stack)", inclusive, kept);
  }
  if (out != stderr) fclose(out);
}

}  // namespace
