// Reads one RMA window's Table-1 totals through its
// rma.table1.win<h>.<leaf> pvars.  Shared by the RMA matrix test and
// bench_simmpi_rma_dataplane's real-stack side.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "pvar/registry.hpp"
#include "simmpi/types.hpp"

namespace m2p::test {

/// A window's totals by leaf name ("put_ops", "pt_sync_wait_ns", ...);
/// the pvars stay readable after MPI_Win_free.
using WinTotals = std::map<std::string, std::int64_t>;

inline WinTotals read_win_totals(pvar::Registry& reg, simmpi::Win w) {
    const std::string base = "rma.table1.win" + std::to_string(w) + ".";
    WinTotals out;
    for (const pvar::VarId id : reg.attach(base + "*"))
        out[reg.describe(id)->name.substr(base.size())] =
            static_cast<std::int64_t>(reg.read(id));
    return out;
}

}  // namespace m2p::test
