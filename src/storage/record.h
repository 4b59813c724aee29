// PhotoObj row size. The real SDSS PhotoObj table carries ~700 physical
// attributes per astronomical body at roughly 2 KB per row; the catalog
// models rows by count only and charges `kModeledRowBytes` each (the size
// used for all network-cost accounting, matching the paper's
// bytes-proportional costs).
#pragma once

#include "util/types.h"

namespace delta::storage {

/// Modeled on-wire/on-disk footprint of one PhotoObj row.
inline constexpr Bytes kModeledRowBytes{2048};

}  // namespace delta::storage
