#include "bench_util.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <spawn.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using graphsd::Result;
using graphsd::Status;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::optional<double> TailQuantile(const std::vector<double>& values,
                                   double q) {
  const double beyond = (1.0 - q) * static_cast<double>(values.size());
  if (beyond < 10.0) return std::nullopt;
  return Quantile(values, q);
}

void RunResult::Fail(const std::string& why) {
  correct = false;
  ++failed;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

void PrintResult(const RunResult& result) {
  std::printf("%-40s %18s  %s\n", "metric", "value", "unit");
  for (const Metric& m : result.metrics) {
    std::printf("%-40s %18.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  char number[64];
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    // Non-finite values are not JSON; main() fails a run that has one.
    std::snprintf(number, sizeof(number), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + number + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

namespace {

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned k = 0; k < 3; ++k) {
      __get_cpuid(0x80000002u + k, &regs[4 * k], &regs[4 * k + 1],
                  &regs[4 * k + 2], &regs[4 * k + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    const auto last = model.find_last_not_of(' ');
    if (first != std::string::npos) return model.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

std::string FilesystemName(const std::string& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x2FC12FC1: return "zfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return hex;
    }
  }
}

// Writes one 64 KiB file and reads its first block back through an
// O_DIRECT descriptor into an aligned buffer: the open alone succeeds on
// some filesystems that then fail every direct read.
bool ProbeDirectIo(const std::string& dir) {
  const std::string path = dir + "/odirect.probe";
  std::vector<char> block(64 * 1024, 'g');
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(block.data(), static_cast<std::streamsize>(block.size()));
    if (!out) return false;
  }
  bool ok = false;
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECT);
  if (fd >= 0) {
    void* buffer = nullptr;
    if (posix_memalign(&buffer, 4096, 4096) == 0) {
      ok = ::pread(fd, buffer, 4096, 0) == 4096 &&
           std::memcmp(buffer, block.data(), 4096) == 0;
      std::free(buffer);
    }
    ::close(fd);
  }
  std::remove(path.c_str());
  return ok;
}

}  // namespace

HostFingerprint Fingerprint(const std::string& dir) {
  HostFingerprint host;
  host.nproc = std::thread::hardware_concurrency();
  host.cpu_model = CpuModel();
  host.filesystem = FilesystemName(dir);
  host.o_direct = ProbeDirectIo(dir);
  host.build_type = PERFBENCH_BUILD_TYPE;
  return host;
}

double RefKernelMs() {
  // 256 KiB table, 4M dependent lookups: a mix of ALU work and cache
  // traffic that moves with the host's clock and contention, not with
  // anything the program under test does.
  std::vector<std::uint32_t> table(1 << 16);
  for (std::size_t i = 0; i < table.size(); ++i) {
    table[i] = static_cast<std::uint32_t>(i * 2654435761u);
  }
  std::vector<double> samples;
  volatile std::uint32_t sink = 0;
  for (int rep = 0; rep < 9; ++rep) {
    const double start = NowSeconds();
    std::uint32_t x = 1;
    for (int k = 0; k < (1 << 22); ++k) {
      x = table[(x ^ static_cast<std::uint32_t>(k)) & 0xFFFF] * 0x9E3779B1u + x;
    }
    sink = sink + x;
    samples.push_back((NowSeconds() - start) * 1e3);
  }
  return Median(samples);
}

void FlushFilesystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

Status ResetPeakRss() {
  ::malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.close();
  if (!clear_refs) {
    return graphsd::InternalError(
        "cannot reset the peak resident set through /proc/self/clear_refs");
  }
  return Status::Ok();
}

Result<double> PeakRssMib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return graphsd::InternalError("no VmHWM in /proc/self/status");
}

Status PinMmapThreshold(std::size_t bytes) {
  if (::mallopt(M_MMAP_THRESHOLD, static_cast<int>(bytes)) != 1) {
    return graphsd::InternalError("mallopt(M_MMAP_THRESHOLD) failed");
  }
  return Status::Ok();
}

Status RunSelf(const std::string& self_path, std::vector<std::string> args,
               const std::string& what) {
  args.insert(args.begin(), self_path);
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  if (const int err = posix_spawn(&pid, self_path.c_str(), nullptr, nullptr,
                                  argv.data(), environ);
      err != 0) {
    return graphsd::ErrnoError("spawning the " + what, err);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) {
    return graphsd::ErrnoError("waiting for the " + what, errno);
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return graphsd::InternalError("the " + what + " failed");
  }
  return Status::Ok();
}

std::uint64_t DirectoryBytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

Status WriteDoubles(const std::string& path, const std::vector<double>& values) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(double)));
  if (!out) return graphsd::IoError("cannot write " + path);
  return Status::Ok();
}

Result<std::vector<double>> ReadDoubles(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return graphsd::NotFoundError("cannot read " + path);
  const auto bytes = static_cast<std::size_t>(in.tellg());
  std::vector<double> values(bytes / sizeof(double));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(values.data()),
          static_cast<std::streamsize>(values.size() * sizeof(double)));
  if (!in) return graphsd::IoError("short read of " + path);
  return values;
}

Status WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  if (!out) return graphsd::IoError("cannot write " + path);
  return Status::Ok();
}

Result<std::string> ReadText(const std::string& path) {
  std::ifstream in(path);
  if (!in) return graphsd::NotFoundError("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool WithinTolerance(double a, double b, double rel, double abs) {
  if (SameBits(a, b)) return true;
  if (std::isnan(a) || std::isnan(b)) return false;
  if (std::isinf(a) || std::isinf(b)) return a == b;
  return std::abs(a - b) <= abs + rel * std::max(std::abs(a), std::abs(b));
}

}  // namespace perfbench
