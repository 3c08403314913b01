#include "host.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpuinfo_field(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The ISA extensions the GEMM kernels could use, in a fixed order.
std::string isa_flags() {
  std::istringstream flags(" " + cpuinfo_field("flags") + " ");
  std::vector<std::string> have;
  for (std::string f; flags >> f;) have.push_back(f);
  std::string out;
  for (const char* want : {"sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw", "avx512vl",
                           "avx512_vnni", "amx_tile"}) {
    for (const auto& f : have) {
      if (f == want) {
        out += out.empty() ? "" : " ";
        out += want;
        break;
      }
    }
  }
  return out;
}

}  // namespace

std::string host_fingerprint_json() {
  const char* rev = std::getenv("PERFBENCH_GIT_DESCRIBE");
  std::ostringstream out;
  out << "{\"cpu\":\"" << json_escape(cpuinfo_field("model name")) << "\""
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"isa\":\"" << isa_flags() << "\""
      << ",\"compiler\":\"" << json_escape(
#if defined(__clang__)
                                  "clang "
#elif defined(__GNUC__)
                                  "gcc "
#endif
                                  __VERSION__)
      << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\""
      << ",\"git_describe\":\"" << json_escape(rev ? rev : "unknown") << "\"}";
  return out.str();
}

}  // namespace perfbench
