#ifndef CAMAL_CORE_MODEL_IO_H_
#define CAMAL_CORE_MODEL_IO_H_

#include <string>

#include "core/ensemble.h"

namespace camal::core {

/// Persists a trained CamAL ensemble to \p directory (created if needed):
/// a `manifest.csv` describing each member (kernel size, base filters,
/// validation loss, weight file) plus one binary weight file per member.
/// Weights include BatchNorm running statistics, so a reloaded ensemble
/// reproduces inference exactly.
Status SaveEnsemble(const CamalEnsemble& ensemble,
                    const std::string& directory);

/// Loads an ensemble saved by SaveEnsemble. A manifest row whose member
/// would need more weights than its weight file holds (its smallest conv
/// alone has base_filters^2 * kernel_size floats) is rejected with
/// kInvalidArgument before the member is built, so a corrupt row cannot
/// size an allocation.
Result<CamalEnsemble> LoadEnsemble(const std::string& directory);

}  // namespace camal::core

#endif  // CAMAL_CORE_MODEL_IO_H_
