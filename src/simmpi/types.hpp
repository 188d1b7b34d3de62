// Public handle types and constants for simmpi, the reproduction's
// MPI-1/MPI-2 subset (DESIGN.md section 2).  Ranks are threads of one
// process; handles are plain integers as in the C MPI bindings.
//
// Names intentionally mirror the MPI standard (MPI_COMM_WORLD,
// MPI_Send, ...) so the PPerfMark programs and examples read like the
// MPI codes in the paper.  Everything lives in namespace m2p::simmpi.
#pragma once

#include <cstdint>

namespace m2p::simmpi {

using Comm = std::int32_t;
using Win = std::int32_t;
using Group = std::int32_t;
using Info = std::int32_t;
using Request = std::int32_t;
using File = std::int32_t;

inline constexpr Comm MPI_COMM_NULL = -1;
inline constexpr Win MPI_WIN_NULL = -1;
inline constexpr Group MPI_GROUP_NULL = -1;
inline constexpr Info MPI_INFO_NULL = -1;
inline constexpr Request MPI_REQUEST_NULL = -1;
inline constexpr File MPI_FILE_NULL = -1;

// MPI-I/O open modes (bit flags, combinable).
inline constexpr int MPI_MODE_RDONLY = 1 << 1;
inline constexpr int MPI_MODE_RDWR = 1 << 2;
inline constexpr int MPI_MODE_WRONLY = 1 << 3;
inline constexpr int MPI_MODE_CREATE = 1 << 4;
inline constexpr int MPI_MODE_EXCL = 1 << 5;
inline constexpr int MPI_MODE_DELETE_ON_CLOSE = 1 << 6;
inline constexpr int MPI_MODE_APPEND = 1 << 7;

// MPI_File_seek whence values.
inline constexpr int MPI_SEEK_SET = 0;
inline constexpr int MPI_SEEK_CUR = 1;
inline constexpr int MPI_SEEK_END = 2;

inline constexpr int MPI_ANY_SOURCE = -2;
inline constexpr int MPI_ANY_TAG = -2;
inline constexpr int MPI_PROC_NULL = -3;
inline constexpr int MPI_UNDEFINED = -32766;

/// Result codes (subset of the standard's error classes).
inline constexpr int MPI_SUCCESS = 0;
inline constexpr int MPI_ERR_COMM = 5;
inline constexpr int MPI_ERR_TYPE = 3;
inline constexpr int MPI_ERR_COUNT = 2;
inline constexpr int MPI_ERR_TAG = 4;
inline constexpr int MPI_ERR_RANK = 6;
inline constexpr int MPI_ERR_ARG = 12;
inline constexpr int MPI_ERR_OTHER = 15;
inline constexpr int MPI_ERR_WIN = 45;
inline constexpr int MPI_ERR_SPAWN = 50;
inline constexpr int MPI_ERR_NAME = 51;
inline constexpr int MPI_ERR_GROUP = 8;
inline constexpr int MPI_ERR_REQUEST = 7;
inline constexpr int MPI_ERR_INFO = 52;
inline constexpr int MPI_ERR_LOCKTYPE = 47;
inline constexpr int MPI_ERR_FILE = 27;
inline constexpr int MPI_ERR_AMODE = 28;
inline constexpr int MPI_ERR_NO_SUCH_FILE = 33;
inline constexpr int MPI_ERR_FILE_EXISTS = 31;
inline constexpr int MPI_ERR_READ_ONLY = 36;
inline constexpr int MPI_ERR_ACCESS = 20;
/// A peer involved in the operation died (the fault-tolerance draft's
/// error class; collectives over a communicator with a dead member
/// fail with this on every survivor).
inline constexpr int MPI_ERR_PROC_FAILED = 75;
/// The communicator was revoked (MPI_Comm_revoke, ULFM-style): every
/// pending and future operation on it fails with this code on every
/// member, so survivors fall out of wedged collectives and can agree /
/// shrink their way to a fresh communicator.
inline constexpr int MPI_ERR_REVOKED = 76;

/// Per-communicator error handlers (subset: the two predefined ones).
/// MPI_ERRORS_ARE_FATAL poisons the whole world on the first
/// fault-class error; MPI_ERRORS_RETURN surfaces MPI_ERR_* codes to
/// the caller.  simmpi defaults to MPI_ERRORS_RETURN so programs (and
/// tests) observe degraded results instead of dying.
inline constexpr int MPI_ERRORS_ARE_FATAL = 1;
inline constexpr int MPI_ERRORS_RETURN = 2;

enum class Datatype : std::int32_t {
    MPI_DATATYPE_NULL = 0,
    MPI_CHAR,
    MPI_BYTE,
    MPI_INT,
    MPI_LONG,
    MPI_FLOAT,
    MPI_DOUBLE,
};
using enum Datatype;

/// Size in bytes of one element of @p dt (0 for the null type).
constexpr int datatype_size(Datatype dt) {
    switch (dt) {
        case MPI_CHAR:
        case MPI_BYTE: return 1;
        case MPI_INT:
        case MPI_FLOAT: return 4;
        case MPI_LONG:
        case MPI_DOUBLE: return 8;
        case MPI_DATATYPE_NULL: return 0;
    }
    return 0;
}

enum class Op : std::int32_t {
    MPI_OP_NULL = 0,
    MPI_SUM,
    MPI_MAX,
    MPI_MIN,
};
using enum Op;

/// MPI_Init_thread support levels (paper section 3: "the addition of
/// thread support means that performance tools for MPI programs must
/// support multi-threaded applications").
inline constexpr int MPI_THREAD_SINGLE = 0;
inline constexpr int MPI_THREAD_FUNNELED = 1;
inline constexpr int MPI_THREAD_SERIALIZED = 2;
inline constexpr int MPI_THREAD_MULTIPLE = 3;

/// MPI_Win_lock lock types.
inline constexpr int MPI_LOCK_EXCLUSIVE = 1;
inline constexpr int MPI_LOCK_SHARED = 2;

/// Assertion bits for RMA synchronization (accepted, not optimized on).
inline constexpr int MPI_MODE_NOCHECK = 1;
inline constexpr int MPI_MODE_NOSTORE = 2;
inline constexpr int MPI_MODE_NOPUT = 4;
inline constexpr int MPI_MODE_NOPRECEDE = 8;
inline constexpr int MPI_MODE_NOSUCCEED = 16;

struct Status {
    int MPI_SOURCE = MPI_ANY_SOURCE;
    int MPI_TAG = MPI_ANY_TAG;
    int MPI_ERROR = MPI_SUCCESS;
    int count_bytes = 0;  ///< backs MPI_Get_count
};

inline constexpr int MPI_MAX_OBJECT_NAME = 128;
inline constexpr int MPI_MAX_PROCESSOR_NAME = 128;

/// Which MPI implementation simmpi is imitating.  The two flavors
/// reproduce the behavioural differences the paper observes between
/// LAM/MPI 7.0 (sysv RPI) and MPICH ch_p4mpd / MPICH2:
///  - Mpich routes message waits through socket-style read/write
///    functions, so Paradyn's I/O metrics see them (paper Fig 3).
///  - Mpich implements MPI_Barrier on PMPI_Sendrecv (paper Fig 9).
///  - Lam implements MPI_Win_fence with MPI_Barrier and internal
///    Isend/Waitall (paper Figs 22, 24).
///  - Lam blocks in MPI_Win_start; Mpich2 defers to MPI_Win_complete
///    (paper section 5.2.1.1).
///  - Only Lam supports MPI_Comm_spawn (paper section 5.2.2) and
///    stores window names in a per-window shadow communicator
///    (paper Fig 23).
enum class Flavor { Lam, Mpich };

const char* flavor_name(Flavor f);

}  // namespace m2p::simmpi
