#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "mdl/ast.hpp"
#include "mdl/default_metrics.hpp"

namespace m2p::mdl {
namespace {

// The paper's Figure 2 rma_put_ops definition, nearly verbatim.
constexpr const char* kFig2PutOps = R"(
metric mpi_rma_put_ops {
    name "rma_put_ops";
    units ops;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    unitstype unnormalized;
    constraint moduleConstraint;
    constraint procedureConstraint;
    constraint mpi_windowConstraint;
    base is counter {
        foreach func in mpi_put {
            append preinsn func.entry constrained (* mpi_rma_put_ops++; *)
        }
    }
}
)";

TEST(MdlParser, ParsesFig2PutOps) {
    const MdlFile f = parse(kFig2PutOps);
    ASSERT_EQ(f.metrics.size(), 1u);
    const MetricDef& m = f.metrics[0];
    EXPECT_EQ(m.id, "mpi_rma_put_ops");
    EXPECT_EQ(m.name, "rma_put_ops");
    EXPECT_EQ(m.units, "ops");
    EXPECT_EQ(m.style, "EventCounter");
    EXPECT_EQ(m.unitstype, UnitsType::Unnormalized);
    ASSERT_EQ(m.constraints.size(), 3u);
    EXPECT_EQ(m.constraints[2], "mpi_windowConstraint");
    EXPECT_EQ(m.base, BaseType::Counter);
    ASSERT_EQ(m.foreachs.size(), 1u);
    EXPECT_EQ(m.foreachs[0].funcset, "mpi_put");
    ASSERT_EQ(m.foreachs[0].points.size(), 1u);
    const InstPoint& p = m.foreachs[0].points[0];
    EXPECT_EQ(p.mode, InsertMode::Append);
    EXPECT_EQ(p.pos, PointPos::Entry);
    EXPECT_TRUE(p.constrained);
    ASSERT_EQ(p.code.size(), 1u);
    EXPECT_EQ(p.code[0]->kind, Stmt::Kind::Increment);
    EXPECT_EQ(p.code[0]->target, "mpi_rma_put_ops");
}

// Figure 2's rma_put_bytes: out-parameter call + arithmetic.
constexpr const char* kFig2PutBytes = R"(
metric mpi_rma_put_bytes {
    name "rma_put_bytes";
    units bytes;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    counter bytes;
    counter count;
    base is counter {
        foreach func in mpi_put {
            append preinsn func.entry constrained
                (* MPI_Type_size($arg[2], &bytes);
                   count = $arg[1];
                   mpi_rma_put_bytes += bytes * count; *)
        }
    }
}
)";

TEST(MdlParser, ParsesFig2PutBytes) {
    const MdlFile f = parse(kFig2PutBytes);
    ASSERT_EQ(f.metrics.size(), 1u);
    const MetricDef& m = f.metrics[0];
    ASSERT_EQ(m.counters.size(), 2u);
    EXPECT_EQ(m.counters[0], "bytes");
    const auto& code = m.foreachs[0].points[0].code;
    ASSERT_EQ(code.size(), 3u);
    EXPECT_EQ(code[0]->kind, Stmt::Kind::Call);
    EXPECT_EQ(code[0]->call->ident, "MPI_Type_size");
    ASSERT_EQ(code[0]->call->call_args.size(), 2u);
    EXPECT_EQ(code[0]->call->call_args[0]->kind, Expr::Kind::Arg);
    EXPECT_EQ(code[0]->call->call_args[0]->index, 2);
    EXPECT_EQ(code[0]->call->call_args[1]->kind, Expr::Kind::AddressOf);
    EXPECT_EQ(code[1]->kind, Stmt::Kind::Assign);
    EXPECT_EQ(code[2]->kind, Stmt::Kind::AddAssign);
    EXPECT_EQ(code[2]->value->kind, Expr::Kind::Binary);
    EXPECT_EQ(code[2]->value->op, "*");
}

// Figure 2's window constraint: path, if-statement, $constraint[].
constexpr const char* kFig2Constraint = R"(
constraint mpi_windowConstraint /SyncObject/Window is counter {
    foreach func in mpi_get {
        prepend preinsn func.entry
            (* if (DYNINSTWindow_FindUniqueId($arg[7]) == $constraint[0]) mpi_windowConstraint = 1; *)
        append preinsn func.return (* mpi_windowConstraint = 0; *)
    }
}
)";

TEST(MdlParser, ParsesFig2WindowConstraint) {
    const MdlFile f = parse(kFig2Constraint);
    ASSERT_EQ(f.constraints.size(), 1u);
    const ConstraintDef& c = f.constraints[0];
    EXPECT_EQ(c.id, "mpi_windowConstraint");
    EXPECT_EQ(c.path, "/SyncObject/Window");
    ASSERT_EQ(c.foreachs.size(), 1u);
    ASSERT_EQ(c.foreachs[0].points.size(), 2u);
    const InstPoint& entry = c.foreachs[0].points[0];
    EXPECT_EQ(entry.mode, InsertMode::Prepend);
    ASSERT_EQ(entry.code.size(), 1u);
    EXPECT_EQ(entry.code[0]->kind, Stmt::Kind::If);
    EXPECT_EQ(entry.code[0]->value->op, "==");
    EXPECT_EQ(entry.code[0]->value->rhs->kind, Expr::Kind::ConstraintArg);
}

TEST(MdlParser, WallTimerMetric) {
    const MdlFile f = parse(R"(
metric m { name "t"; unitstype normalized;
  base is walltimer {
    foreach func in s {
      append preinsn func.entry constrained (* startWallTimer(m); *)
      prepend preinsn func.return constrained (* stopWallTimer(m); *)
    }
  } }
)");
    EXPECT_EQ(f.metrics[0].base, BaseType::WallTimer);
    EXPECT_EQ(f.metrics[0].foreachs[0].points[1].mode, InsertMode::Prepend);
    EXPECT_EQ(f.metrics[0].foreachs[0].points[1].pos, PointPos::Return);
}

TEST(MdlParser, DaemonWithMpiImplementationAttribute) {
    const MdlFile f = parse(R"(
daemon pd_lam { command "paradynd"; flavor mpi; mpi_implementation "lam"; }
)");
    const DaemonDef* d = f.find_daemon("pd_lam");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->attrs.at("command"), "paradynd");
    EXPECT_EQ(d->attrs.at("mpi_implementation"), "lam");
}

TEST(MdlParser, TunableConstantsSupportFractions) {
    const MdlFile f = parse("tunable_constant PC_CpuThreshold 0.2;\n");
    EXPECT_DOUBLE_EQ(f.tunables.at("PC_CpuThreshold"), 0.2);
}

TEST(MdlParser, CommentsAreIgnored) {
    const MdlFile f = parse(R"(
// line comment
/* block
   comment */
tunable_constant x 1;
)");
    EXPECT_EQ(f.tunables.at("x"), 1.0);
}

TEST(MdlParser, EmptyForeachBodyAllowed) {
    // Figure 2's rma_sync_wait contains "foreach func in mpi_all_calls { }".
    const MdlFile f = parse(R"(
metric m { name "m"; base is counter { foreach func in s { } } }
)");
    EXPECT_TRUE(f.metrics[0].foreachs[0].points.empty());
}

TEST(MdlParser, ErrorsCarryLineNumbers) {
    try {
        parse("metric m {\n  bogus_attribute x;\n}");
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    }
}

TEST(MdlParser, UnterminatedStringThrows) {
    EXPECT_THROW(parse("metric m { name \"oops; }"), ParseError);
}

TEST(MdlParser, UnknownTopLevelThrows) {
    EXPECT_THROW(parse("widget w {}"), ParseError);
}

TEST(MdlParser, FindMetricByIdAndDisplayName) {
    const MdlFile f = parse(kFig2PutOps);
    EXPECT_NE(f.find_metric("mpi_rma_put_ops"), nullptr);
    EXPECT_NE(f.find_metric("rma_put_ops"), nullptr);
    EXPECT_EQ(f.find_metric("nope"), nullptr);
}

TEST(MdlParser, DefaultMetricFileParsesCompletely) {
    const MdlFile f = parse(default_metrics_source());
    // The 12 Table-1 RMA metrics plus the MPI-1 metrics.
    for (const char* name :
         {"rma_put_ops", "rma_get_ops", "rma_acc_ops", "rma_ops", "rma_put_bytes",
          "rma_get_bytes", "rma_acc_bytes", "rma_bytes", "at_rma_sync_wait",
          "pt_rma_sync_wait", "rma_sync_wait", "rma_sync_ops", "sync_wait_inclusive",
          "io_wait_inclusive", "cpu_inclusive", "msg_bytes_sent", "msg_bytes_recv",
          "msgs_sent"})
        EXPECT_NE(f.find_metric(name), nullptr) << name;
    for (const char* c :
         {"procedureConstraint", "moduleConstraint", "mpi_msgConstraint",
          "mpi_msgtagConstraint", "mpi_barrierConstraint", "mpi_windowConstraint"})
        EXPECT_NE(f.find_constraint(c), nullptr) << c;
    EXPECT_NE(f.find_daemon("pd_lam"), nullptr);
    EXPECT_NE(f.find_daemon("pd_mpich"), nullptr);
    EXPECT_EQ(f.tunables.count("PC_SyncThreshold"), 1u);
}

TEST(MdlParser, EmbeddedDefaultMetricsEqualTheConfigFileByteForByte) {
    // The build embeds config/default_metrics.mdl into the library; a
    // CMake quoting slip (';', '${', '@') would silently alter the text.
    std::ifstream in(M2P_DEFAULT_MDL_PATH, std::ios::binary);
    ASSERT_TRUE(in) << "cannot open " << M2P_DEFAULT_MDL_PATH;
    std::ostringstream file;
    file << in.rdbuf();
    EXPECT_EQ(default_metrics_source(), file.str());
}

}  // namespace
}  // namespace m2p::mdl
