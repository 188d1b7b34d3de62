// MDL compilation: turns a parsed MetricDef plus constraint bindings
// into instrumentation snippets inserted into the Registry, exactly
// Paradyn's metric-focus instantiation step.  The metric's primary
// variable feeds a MetricSink (the tool connects it to a folding
// histogram); constraint code maintains per-context flags that gate
// `constrained` metric code, as in the paper's Figure 2.
//
// Each instrumentation point's statement tree is lowered once, at
// compile time, into a flat vector of stack-machine ops (DESIGN.md §7
// "Compiled snippets"): scratch variables and timers become dense slot
// indices, the "primary variable?" and "constraint flag?" tests are
// decided per statement, and $constraint[k] folds to a constant.  A
// firing snippet only walks its ops over the calling context's state
// record in a lock-free ContextTable.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "instr/registry.hpp"
#include "mdl/ast.hpp"

namespace m2p::mdl {

struct CompileError : std::runtime_error {
    explicit CompileError(const std::string& msg) : std::runtime_error(msg) {}
};

/// Runtime services MDL built-in calls resolve against.  Implemented
/// by the tool daemon on top of simmpi.
class Services {
public:
    virtual ~Services() = default;
    /// MPI_Type_size($arg[k], &bytes)
    virtual std::int64_t type_size(std::int64_t datatype_handle) const = 0;
    /// DYNINSTWindow_FindUniqueId($arg[k]) -- the tool-unique id of an
    /// RMA window handle (paper section 4.2.1's N-M scheme).
    virtual std::int64_t window_unique_id(std::int64_t win_handle) const = 0;
    /// DYNINSTComm_FindId($arg[k]) -- identity of a communicator handle.
    virtual std::int64_t comm_unique_id(std::int64_t comm_handle) const = 0;
};

/// Receives primary-variable deltas: (wall-clock now, delta).
using MetricSink = std::function<void(double now, double delta)>;

/// Native gate evaluated before metric code runs; the tool uses it for
/// process/machine foci (filter by executing rank).  May be empty.
using EventGate = std::function<bool(const instr::CallContext&)>;

/// Resolves MDL function-set names ("mpi_put", "mpi_rma_sync", ...) to
/// registered functions.  The tool owns the set definitions.
using FuncSetResolver = std::function<std::vector<instr::FuncId>(const std::string&)>;

/// Per-context MDL state of one compiled metric (scratch variables,
/// timer nests and starts, constraint nesting depths): one fixed-size
/// record per execution context.
///
/// A context is a simmpi rank, indexed by its global id, or a non-rank
/// thread, indexed by a process-unique dense thread number; the two
/// index spaces are separate, so ranks sharing a scheduler worker never
/// alias and a migrating fiber rank keeps its state.  Storage is
/// append-only: chunk k of a space holds kBaseChunk << k records, is
/// allocated zeroed on the first touch of any record in it and is
/// published with a CAS, so a 4-rank session owns one small chunk while
/// spawned ranks or a 1024-rank world grow the table without a lock and
/// without moving a record.  Records are padded to a cache line.
///
/// Ownership invariant: only the owning context reads or writes its
/// record, so records need no synchronization.  A fiber rank that
/// migrates between scheduler workers is ordered by the scheduler's
/// run-queue handoff.
class ContextTable {
public:
    static constexpr std::size_t kBaseChunk = 16;
    /// Enough chunks for any non-negative int index.
    static constexpr std::size_t kMaxChunks = 32;

    explicit ContextTable(std::size_t record_bytes);
    ~ContextTable();
    ContextTable(const ContextTable&) = delete;
    ContextTable& operator=(const ContextTable&) = delete;

    /// The record of rank @p rank, or of the calling thread when
    /// @p rank < 0.  Zero-initialised on first touch.
    std::byte* record(int rank);

    std::size_t stride() const { return stride_; }
    /// Chunks allocated so far, across both index spaces.
    std::size_t chunks_allocated() const;

private:
    using Directory = std::array<std::atomic<std::byte*>, kMaxChunks>;
    std::byte* record_in(Directory& dir, std::size_t index);
    std::byte* allocate_chunk(Directory& dir, std::size_t k);

    const std::size_t stride_;
    Directory ranks_{};
    Directory threads_{};
};

/// Compiled op programs and per-context state of one metric-focus
/// instantiation; defined in eval.cpp.
struct MetricProgram;

/// A constraint to instantiate alongside a metric: the definition plus
/// the focus-resolved $constraint[] values.  `set_overrides` lets the
/// caller bind focus-dependent function sets (e.g. `focus_procedure`)
/// differently per binding, which is how nested Code-axis drill-downs
/// ("time in MPI_Send while inside Gsend_message") instantiate the
/// same procedureConstraint twice.
struct ConstraintBinding {
    const ConstraintDef* def = nullptr;
    std::vector<std::int64_t> values;
    std::map<std::string, std::vector<instr::FuncId>> set_overrides;
};

/// Everything a live metric-focus instantiation owns.  Destroying it
/// does NOT remove instrumentation; call uninstall() first (Paradyn's
/// instrumentation deletion).
struct CompiledMetric {
    std::vector<instr::SnippetHandle> handles;
    /// Shared with every inserted snippet, so a snippet still running
    /// after uninstall() finishes on live state.
    std::shared_ptr<MetricProgram> program;

    /// The instantiation's per-context state.
    const ContextTable& contexts() const;
};

/// Compiles and inserts instrumentation for @p metric constrained by
/// @p bindings.  Throws CompileError on unknown calls, malformed calls,
/// unknown operators or an out-of-range $constraint[k]; nothing is
/// inserted then.
CompiledMetric compile_metric(instr::Registry& reg, const MetricDef& metric,
                              const std::vector<ConstraintBinding>& bindings,
                              std::shared_ptr<Services> services,
                              const FuncSetResolver& resolver, MetricSink sink,
                              EventGate gate = {});

/// Removes every snippet the compilation inserted.
void uninstall(instr::Registry& reg, CompiledMetric& cm);

}  // namespace m2p::mdl
