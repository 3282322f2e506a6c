// Shared plumbing of the benchmark harness: statistics, the result line,
// the host fingerprint and its reference probe, and small file helpers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace perfbench {

inline constexpr double kMiB = 1024.0 * 1024.0;

/// Seconds on the steady clock.
double NowSeconds();

double Median(std::vector<double> values);

/// Linear-interpolated quantile `q` in [0, 1] of `values` (non-empty).
double Quantile(std::vector<double> values, double q);

/// The `q` quantile, or nothing when fewer than 10 samples lie beyond it
/// (a tail percentile resting on fewer samples is not reported).
std::optional<double> TailQuantile(const std::vector<double>& values,
                                   double q);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The outcome of one benchmark invocation.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records one failed operation (wrong output or broken invariant) and
  /// says why on stderr.
  void Fail(const std::string& why);
};

/// Prints the metric table, then the result object as the last line of
/// standard output.
void PrintResult(const RunResult& result);

struct HostFingerprint {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string filesystem;
  bool o_direct = false;
  std::string build_type;
};

/// Fingerprints the host; O_DIRECT is probed with a real aligned read of a
/// file created in `dir`.
HostFingerprint Fingerprint(const std::string& dir);

/// Median wall time of a fixed single-thread kernel owned by the harness
/// (integer hashing over an L2-resident table). Diagnostic only: it lets an
/// A/A spread be traced to the host; no metric is normalised by it.
double RefKernelMs();

/// Writes back the dirty pages of the filesystem holding `dir`, so set-up's
/// writes do not drain into the measured window.
void FlushFilesystem(const std::string& dir);

/// Returns freed heap to the system and resets this process's resident-set
/// high-water mark to its current resident set (writes "5" to
/// /proc/self/clear_refs), so PeakRssMib covers only what follows.
graphsd::Status ResetPeakRss();

/// Peak resident set of this process since the last ResetPeakRss (VmHWM).
graphsd::Result<double> PeakRssMib();

/// Fixes glibc's mmap threshold at `bytes` for the rest of the process.
/// By default glibc raises the threshold each time a large mmapped block is
/// freed, so later large buffers come from the heap and stay resident after
/// they are freed; a fixed threshold maps and unmaps them every time, and
/// the resident set follows what is live.
graphsd::Status PinMmapThreshold(std::size_t bytes);

/// Runs this binary (`self_path`) with `args` and waits for it; an error
/// unless it exits with 0. `what` names the child in the error.
graphsd::Status RunSelf(const std::string& self_path,
                        std::vector<std::string> args,
                        const std::string& what);

/// Sum of regular-file sizes under `dir`.
std::uint64_t DirectoryBytes(const std::string& dir);

graphsd::Status WriteDoubles(const std::string& path,
                             const std::vector<double>& values);
graphsd::Result<std::vector<double>> ReadDoubles(const std::string& path);

graphsd::Status WriteText(const std::string& path, const std::string& text);
graphsd::Result<std::string> ReadText(const std::string& path);

/// Bitwise equality of two doubles (NaN payloads and signed zeros too).
bool SameBits(double a, double b);

/// |a − b| ≤ abs + rel·max(|a|, |b|), bitwise-equal values always passing.
bool WithinTolerance(double a, double b, double rel, double abs);

}  // namespace perfbench
