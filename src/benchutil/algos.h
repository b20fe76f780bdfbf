#pragma once
// Algorithm-list handling shared by the bench binaries: parses --algos
// ("all", "apa", "exact", or a comma list) against the registry, always
// normalizing "classical" handling.

#include <string>
#include <vector>

namespace apa::bench {

/// Resolves a CLI algorithm list. Special values:
///   "all"   -> classical + every registry algorithm
///   "apa"   -> classical + APA (inexact) algorithms only
///   "exact" -> classical + exact fast algorithms only
/// Otherwise each comma-separated name is validated against the registry
/// (plus "classical"). Throws on unknown names.
[[nodiscard]] std::vector<std::string> resolve_algorithms(
    const std::vector<std::string>& requested);

/// `algos` with "classical" moved, or added, to the front: the baseline the
/// timing benches measure every fast rule against.
[[nodiscard]] std::vector<std::string> with_classical_first(std::vector<std::string> algos);

}  // namespace apa::bench
