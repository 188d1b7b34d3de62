// The tool's default metric definition file, written in MDL.
//
// It contains the paper's complete Table 1 RMA metric suite (with the
// rma_put_ops / rma_put_bytes / rma_sync_wait definitions following
// Figure 2), the MPI-1 metrics the Performance Consultant needs
// (sync waiting time, I/O blocking time, CPU inclusive time, message
// byte counters), the resource constraints (window, message,
// message-tag, barrier, module, procedure), the PCL daemon
// definitions with the paper's new `mpi_implementation` attribute,
// and the Performance Consultant threshold tunables.
//
// Function-set names are resolved by the tool (core::FuncSets);
// every set resolves to PMPI-level symbols, mirroring how MPICH's
// weak-symbol scheme makes PMPI_* the symbols that actually execute
// (the paper's section 4.1.1 fixed Paradyn's metric definitions for
// exactly this reason).
#pragma once

#include <string>

namespace m2p::mdl {

/// MDL source of the default metric file: config/default_metrics.mdl,
/// embedded byte for byte at configure time (src/mdl/CMakeLists.txt)
/// so the tool works without a shared filesystem.
const std::string& default_metrics_source();

}  // namespace m2p::mdl
