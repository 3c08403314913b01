// Host fingerprint recorded with every run: CPU model, hardware threads,
// ISA flags, compiler, build type and the source revision.
#pragma once

#include <string>

namespace perfbench {

/// One-line JSON object describing the host and build.
std::string host_fingerprint_json();

}  // namespace perfbench
