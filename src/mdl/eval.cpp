#include "mdl/eval.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <new>

#include "util/clock.hpp"

namespace m2p::mdl {

// ---------------------------------------------------------------------------
// ContextTable
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kCacheLine = 64;

/// Process-unique dense index of the calling non-rank thread.  Never
/// reused: a later thread must not inherit an exited thread's timers.
std::size_t thread_context_index() {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
    return index;
}

/// calloc'd (so large chunks stay untouched zero pages until a context
/// writes them) and aligned up to a cache line; the raw pointer sits in
/// the word before the aligned block for free_chunk().
std::byte* alloc_chunk(std::size_t bytes) {
    void* raw = std::calloc(1, bytes + kCacheLine + sizeof(void*));
    if (!raw) throw std::bad_alloc();
    const auto base = reinterpret_cast<std::uintptr_t>(raw) + sizeof(void*);
    auto* aligned = reinterpret_cast<std::byte*>((base + kCacheLine - 1) &
                                                 ~std::uintptr_t{kCacheLine - 1});
    reinterpret_cast<void**>(aligned)[-1] = raw;
    return aligned;
}

void free_chunk(std::byte* chunk) {
    if (chunk) std::free(reinterpret_cast<void**>(chunk)[-1]);
}

}  // namespace

ContextTable::ContextTable(std::size_t record_bytes)
    : stride_(std::max<std::size_t>(kCacheLine, (record_bytes + kCacheLine - 1) /
                                                    kCacheLine * kCacheLine)) {}

ContextTable::~ContextTable() {
    for (Directory* dir : {&ranks_, &threads_})
        for (auto& c : *dir) free_chunk(c.load(std::memory_order_relaxed));
}

std::byte* ContextTable::record(int rank) {
    return rank >= 0 ? record_in(ranks_, static_cast<std::size_t>(rank))
                     : record_in(threads_, thread_context_index());
}

std::byte* ContextTable::record_in(Directory& dir, std::size_t index) {
    // Chunk k covers indices [B(2^k - 1), B(2^(k+1) - 1)).
    const std::size_t k = std::bit_width(index / kBaseChunk + 1) - 1;
    const std::size_t offset = index - kBaseChunk * ((std::size_t{1} << k) - 1);
    std::byte* chunk = dir[k].load(std::memory_order_acquire);
    if (!chunk) [[unlikely]]
        chunk = allocate_chunk(dir, k);
    return chunk + offset * stride_;
}

std::byte* ContextTable::allocate_chunk(Directory& dir, std::size_t k) {
    std::byte* fresh = alloc_chunk((kBaseChunk << k) * stride_);
    std::byte* expected = nullptr;
    if (dir[k].compare_exchange_strong(expected, fresh, std::memory_order_acq_rel,
                                       std::memory_order_acquire))
        return fresh;
    free_chunk(fresh);  // another context published this chunk first
    return expected;
}

std::size_t ContextTable::chunks_allocated() const {
    std::size_t n = 0;
    for (const Directory* dir : {&ranks_, &threads_})
        for (const auto& c : *dir) n += c.load(std::memory_order_acquire) != nullptr;
    return n;
}

// ---------------------------------------------------------------------------
// Compiled programs
// ---------------------------------------------------------------------------

namespace {

enum class OpCode : std::uint8_t {
    Const,       ///< push imm
    Arg,         ///< push $arg[a], 0 when the call carries fewer args
    Load,        ///< push scratch[a]
    Store,       ///< scratch[a] = pop
    Mul,         ///< pop r, pop l, push l * r (wrapping)
    Add,         ///< pop r, pop l, push l + r (wrapping)
    Eq,          ///< pop r, pop l, push l == r
    Ne,          ///< pop r, pop l, push l != r
    If,          ///< pop; zero skips the next a ops
    Pop,         ///< discard a call's result
    TypeSize,    ///< top = scratch[a] = type_size(top)
    WindowUid,   ///< top = window_unique_id(top)
    CommId,      ///< top = comm_unique_id(top)
    StartTimer,  ///< timer a: the outermost start stamps the clock
    StopTimer,   ///< timer a: the outermost stop feeds the sink if primary
    AddPrimary,  ///< sink(now, pop)
    SetFlag,     ///< constraint a: pop nonzero pushes a level, zero pops one
};

struct Op {
    OpCode code = OpCode::Const;
    bool proc = false;     ///< timers: rank CPU clock instead of wall clock
    bool primary = false;  ///< StopTimer: the timer is the primary variable
    std::uint32_t a = 0;   ///< slot, timer, constraint, arg index or skip count
    std::int64_t imm = 0;  ///< Const
};

/// Deepest operand stack any point may use; MDL expressions are a
/// handful of terms, so running past this is a malformed definition.
constexpr std::size_t kMaxStack = 16;

struct TimerState {
    std::int64_t nest = 0;
    double start = 0.0;
};

struct CompiledPoint {
    std::vector<Op> ops;
    std::vector<instr::FuncId> funcs;
    instr::Where where = instr::Where::Entry;
    bool prepend = false;
    bool metric_code = false;  ///< runs the EventGate
    bool constrained = false;  ///< needs every constraint flag set
};

/// Stack effect of each op, indexed by OpCode.
constexpr int kStackEffect[] = {+1, +1, +1, -1, -1, -1, -1, -1, -1,
                                -1, 0,  0,  0,  0,  0,  -1, -1};
static_assert(std::size(kStackEffect) == static_cast<std::size_t>(OpCode::SetFlag) + 1);

/// Lowers statement trees to ops, assigning dense slots to scratch
/// variables and timers by name.  All name resolution happens here.
class Lowering {
public:
    explicit Lowering(const std::string& primary) : primary_(primary) {}

    /// Code of a metric point (@p self == nullptr) or of constraint
    /// instance @p self_index with flag variable @p self->id.
    std::vector<Op> lower(const std::vector<StmtPtr>& code, const ConstraintDef* self,
                          std::uint32_t self_index,
                          const std::vector<std::int64_t>* bindings) {
        ops_.clear();
        depth_ = 0;
        self_ = self;
        self_index_ = self_index;
        bindings_ = bindings;
        for (const auto& st : code) stmt(*st);
        return std::move(ops_);
    }

    std::size_t vars() const { return vars_.size(); }
    std::size_t timers() const { return timers_.size(); }

private:
    void emit(Op op) {
        const int d = static_cast<int>(depth_) + kStackEffect[static_cast<int>(op.code)];
        depth_ = static_cast<std::size_t>(d);
        if (depth_ > kMaxStack) throw CompileError("MDL expression too deep");
        ops_.push_back(op);
    }
    void emit(OpCode c, std::uint32_t a = 0) { emit(Op{c, false, false, a, 0}); }

    static std::uint32_t slot(std::map<std::string, std::uint32_t>& m,
                              const std::string& name) {
        return m.try_emplace(name, static_cast<std::uint32_t>(m.size())).first->second;
    }
    bool is_flag(const std::string& target) const { return self_ && target == self_->id; }

    void stmt(const Stmt& s) {
        switch (s.kind) {
            case Stmt::Kind::Increment:
                if (s.target == primary_) {
                    emit(Op{OpCode::Const, false, false, 0, 1});
                    emit(OpCode::AddPrimary);
                } else if (is_flag(s.target)) {
                    emit(Op{OpCode::Const, false, false, 0, 1});
                    emit(OpCode::SetFlag, self_index_);
                } else {
                    const std::uint32_t v = slot(vars_, s.target);
                    emit(OpCode::Load, v);
                    emit(Op{OpCode::Const, false, false, 0, 1});
                    emit(OpCode::Add);
                    emit(OpCode::Store, v);
                }
                break;
            case Stmt::Kind::Assign:
                expr(*s.value);
                if (is_flag(s.target))
                    emit(OpCode::SetFlag, self_index_);
                else if (s.target == primary_)
                    emit(OpCode::AddPrimary);
                else
                    emit(OpCode::Store, slot(vars_, s.target));
                break;
            case Stmt::Kind::AddAssign:
                expr(*s.value);
                if (s.target == primary_) {
                    emit(OpCode::AddPrimary);
                } else if (is_flag(s.target)) {
                    emit(OpCode::SetFlag, self_index_);
                } else {
                    const std::uint32_t v = slot(vars_, s.target);
                    emit(OpCode::Load, v);
                    emit(OpCode::Add);
                    emit(OpCode::Store, v);
                }
                break;
            case Stmt::Kind::If: {
                expr(*s.value);
                emit(OpCode::If);
                const std::size_t at = ops_.size() - 1;
                stmt(*s.body);
                ops_[at].a = static_cast<std::uint32_t>(ops_.size() - at - 1);
                break;
            }
            case Stmt::Kind::Call:
                if (call(*s.call)) emit(OpCode::Pop);
                break;
        }
    }

    void expr(const Expr& e) {
        switch (e.kind) {
            case Expr::Kind::Number:
                emit(Op{OpCode::Const, false, false, 0, e.number});
                break;
            case Expr::Kind::Ident: emit(OpCode::Load, slot(vars_, e.ident)); break;
            case Expr::Kind::Arg:
                if (e.index < 0)
                    emit(Op{OpCode::Const, false, false, 0, 0});
                else
                    emit(OpCode::Arg, static_cast<std::uint32_t>(e.index));
                break;
            case Expr::Kind::ConstraintArg:
                if (!self_) throw CompileError("$constraint[] outside constraint code");
                if (e.index < 0 || static_cast<std::size_t>(e.index) >= bindings_->size())
                    throw CompileError("$constraint[" + std::to_string(e.index) +
                                       "] out of range");
                emit(Op{OpCode::Const, false, false, 0,
                        (*bindings_)[static_cast<std::size_t>(e.index)]});
                break;
            case Expr::Kind::Call:
                if (!call(e)) emit(Op{OpCode::Const, false, false, 0, 0});
                break;
            case Expr::Kind::AddressOf:
                throw CompileError("'&' only valid as a call out-parameter");
            case Expr::Kind::Binary: {
                OpCode c;
                if (e.op == "*") c = OpCode::Mul;
                else if (e.op == "+") c = OpCode::Add;
                else if (e.op == "==") c = OpCode::Eq;
                else if (e.op == "!=") c = OpCode::Ne;
                else throw CompileError("unknown operator '" + e.op + "'");
                expr(*e.lhs);
                expr(*e.rhs);
                emit(c);
                break;
            }
        }
    }

    /// Lowers a built-in call; returns whether it leaves a value.
    bool call(const Expr& e) {
        const std::string& f = e.ident;
        if (f == "MPI_Type_size") {
            // MPI_Type_size(dtype_expr, &out): out-parameter form.
            if (e.call_args.size() != 2 || e.call_args[1]->kind != Expr::Kind::AddressOf)
                throw CompileError("MPI_Type_size expects (expr, &counter)");
            expr(*e.call_args[0]);
            emit(OpCode::TypeSize, slot(vars_, e.call_args[1]->ident));
            return true;
        }
        const bool window = f == "DYNINSTWindow_FindUniqueId" ||
                            f == "DYNINSTTWindow_FindUniqueId";
        if (window || f == "DYNINSTComm_FindId") {
            if (e.call_args.size() != 1) throw CompileError(f + " expects one argument");
            expr(*e.call_args[0]);
            emit(window ? OpCode::WindowUid : OpCode::CommId);
            return true;
        }
        const bool start = f == "startWallTimer" || f == "startProcTimer";
        const bool stop = f == "stopWallTimer" || f == "stopProcTimer";
        if (start || stop) {
            if (e.call_args.size() != 1 || e.call_args[0]->kind != Expr::Kind::Ident)
                throw CompileError(f + " expects a timer identifier");
            const std::string& name = e.call_args[0]->ident;
            emit(Op{start ? OpCode::StartTimer : OpCode::StopTimer,
                    f == "startProcTimer" || f == "stopProcTimer", name == primary_,
                    slot(timers_, name), 0});
            return false;
        }
        throw CompileError("unknown MDL call '" + f + "'");
    }

    const std::string& primary_;
    std::map<std::string, std::uint32_t> vars_;
    std::map<std::string, std::uint32_t> timers_;
    std::vector<Op> ops_;
    std::size_t depth_ = 0;
    const ConstraintDef* self_ = nullptr;
    std::uint32_t self_index_ = 0;
    const std::vector<std::int64_t>* bindings_ = nullptr;
};

}  // namespace

/// Record layout: scratch slots, then timers, then constraint depths.
struct MetricProgram {
    MetricProgram(std::vector<CompiledPoint> pts, std::size_t vars, std::size_t timers,
                  std::size_t constraints, MetricSink s, std::shared_ptr<Services> svc,
                  EventGate g)
        : points(std::move(pts)),
          sink(std::move(s)),
          services(std::move(svc)),
          gate(std::move(g)),
          timers_at(vars * sizeof(std::int64_t)),
          depths_at(timers_at + timers * sizeof(TimerState)),
          nconstraints(constraints),
          table(depths_at + constraints * sizeof(std::int64_t)) {}

    void fire(const CompiledPoint& p, const instr::CallContext& call) {
        if (p.metric_code && gate && !gate(call)) return;
        std::byte* rec = table.record(call.rank);
        auto* depths = reinterpret_cast<std::int64_t*>(rec + depths_at);
        if (p.constrained)
            for (std::size_t i = 0; i < nconstraints; ++i)
                if (depths[i] == 0) return;
        run(p.ops, call, reinterpret_cast<std::int64_t*>(rec),
            reinterpret_cast<TimerState*>(rec + timers_at), depths);
    }

    void run(const std::vector<Op>& ops, const instr::CallContext& call,
             std::int64_t* vars, TimerState* timers, std::int64_t* depths) const {
        std::int64_t st[kMaxStack];
        std::size_t sp = 0;
        const auto wrap = [](std::uint64_t v) { return static_cast<std::int64_t>(v); };
        for (const Op* op = ops.data(), *end = op + ops.size(); op != end; ++op) {
            switch (op->code) {
                case OpCode::Const: st[sp++] = op->imm; break;
                case OpCode::Arg:
                    st[sp++] = op->a < call.args.size() ? call.args[op->a] : 0;
                    break;
                case OpCode::Load: st[sp++] = vars[op->a]; break;
                case OpCode::Store: vars[op->a] = st[--sp]; break;
                case OpCode::Mul:
                    --sp;
                    st[sp - 1] = wrap(static_cast<std::uint64_t>(st[sp - 1]) *
                                      static_cast<std::uint64_t>(st[sp]));
                    break;
                case OpCode::Add:
                    --sp;
                    st[sp - 1] = wrap(static_cast<std::uint64_t>(st[sp - 1]) +
                                      static_cast<std::uint64_t>(st[sp]));
                    break;
                case OpCode::Eq:
                    --sp;
                    st[sp - 1] = st[sp - 1] == st[sp] ? 1 : 0;
                    break;
                case OpCode::Ne:
                    --sp;
                    st[sp - 1] = st[sp - 1] != st[sp] ? 1 : 0;
                    break;
                case OpCode::If:
                    if (st[--sp] == 0) op += op->a;
                    break;
                case OpCode::Pop: --sp; break;
                case OpCode::TypeSize:
                    st[sp - 1] = vars[op->a] = services->type_size(st[sp - 1]);
                    break;
                case OpCode::WindowUid:
                    st[sp - 1] = services->window_unique_id(st[sp - 1]);
                    break;
                case OpCode::CommId: st[sp - 1] = services->comm_unique_id(st[sp - 1]); break;
                case OpCode::StartTimer: {
                    // rank_cpu_seconds, not thread_cpu_seconds: a fiber
                    // rank can migrate workers between start and stop.
                    TimerState& t = timers[op->a];
                    if (t.nest++ == 0)
                        t.start = op->proc ? util::rank_cpu_seconds() : util::wall_seconds();
                    break;
                }
                case OpCode::StopTimer: {
                    TimerState& t = timers[op->a];
                    if (t.nest == 0) break;  // stop without start: ignore
                    if (--t.nest != 0 || !op->primary) break;
                    const double wall = util::wall_seconds();
                    const double delta =
                        (op->proc ? util::rank_cpu_seconds() : wall) - t.start;
                    if (delta >= 0.0 && sink) sink(wall, delta);
                    break;
                }
                case OpCode::AddPrimary: {
                    const std::int64_t v = st[--sp];
                    if (sink) sink(util::wall_seconds(), static_cast<double>(v));
                    break;
                }
                case OpCode::SetFlag: {
                    std::int64_t& depth = depths[op->a];
                    if (st[--sp] != 0)
                        ++depth;
                    else if (depth > 0)
                        --depth;
                    break;
                }
            }
        }
    }

    const std::vector<CompiledPoint> points;
    const MetricSink sink;
    const std::shared_ptr<Services> services;
    const EventGate gate;
    const std::size_t timers_at;
    const std::size_t depths_at;
    const std::size_t nconstraints;
    ContextTable table;
};

const ContextTable& CompiledMetric::contexts() const { return program->table; }

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

CompiledMetric compile_metric(instr::Registry& reg, const MetricDef& metric,
                              const std::vector<ConstraintBinding>& bindings,
                              std::shared_ptr<Services> services,
                              const FuncSetResolver& resolver, MetricSink sink,
                              EventGate gate) {
    // Lower and resolve everything before inserting anything, so a
    // CompileError leaves the registry untouched.  Constraint points
    // come first so their flag-setting snippets are in place before
    // metric code consults them.
    Lowering low(metric.id);
    std::vector<CompiledPoint> points;
    const auto add_points = [&](const std::vector<Foreach>& foreachs,
                                const ConstraintBinding* b, std::uint32_t self_index) {
        for (const auto& fe : foreachs) {
            const std::vector<instr::FuncId>* ov = nullptr;
            if (b) {
                const auto it = b->set_overrides.find(fe.funcset);
                if (it != b->set_overrides.end()) ov = &it->second;
            }
            const std::vector<instr::FuncId> funcs = ov ? *ov : resolver(fe.funcset);
            for (const auto& p : fe.points) {
                CompiledPoint cp;
                cp.ops = low.lower(p.code, b ? b->def : nullptr, self_index,
                                   b ? &b->values : nullptr);
                cp.funcs = funcs;
                cp.where = p.pos == PointPos::Entry ? instr::Where::Entry
                                                    : instr::Where::Return;
                cp.prepend = p.mode == InsertMode::Prepend;
                cp.metric_code = b == nullptr;
                cp.constrained = b == nullptr && p.constrained;
                points.push_back(std::move(cp));
            }
        }
    };
    for (std::size_t i = 0; i < bindings.size(); ++i)
        add_points(bindings[i].def->foreachs, &bindings[i], static_cast<std::uint32_t>(i));
    add_points(metric.foreachs, nullptr, 0);

    CompiledMetric cm;
    cm.program = std::make_shared<MetricProgram>(
        std::move(points), low.vars(), low.timers(), bindings.size(), std::move(sink),
        std::move(services), std::move(gate));
    for (const CompiledPoint& p : cm.program->points) {
        for (instr::FuncId f : p.funcs) {
            auto snip = [prog = cm.program, point = &p](const instr::CallContext& ctx) {
                prog->fire(*point, ctx);
            };
            cm.handles.push_back(reg.insert(f, p.where, std::move(snip), p.prepend));
        }
    }
    return cm;
}

void uninstall(instr::Registry& reg, CompiledMetric& cm) {
    for (const auto& h : cm.handles) reg.remove(h);
    cm.handles.clear();
}

}  // namespace m2p::mdl
