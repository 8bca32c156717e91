/**
 * @file
 * Dispatch vocabulary for the compiled tier's direct-threaded executor.
 *
 * The tier-2 compiler stamps every PInst with a flat opcode (TOp) whose
 * values are dense array indices, so the executor can dispatch either
 * through a computed-goto label table (GCC/Clang `&&label` extension,
 * probed by CMake into MS_THREADED_DISPATCH) or through a portable
 * switch that compiles on any C++20 toolchain. The X-macro below is the
 * single source of truth: the enum, the label table, and the switch are
 * all generated from it, so the two dispatch modes can never drift
 * apart.
 *
 * Each TOp already folds in the superinstruction flags
 * (kPFuseLoad/kPFuseStore/kPFuseCmpBr): the executor never re-tests
 * PInst::flags on the hot path. Ops with no specialized handler (plain
 * `call`, ptrtoint/inttoptr) funnel into tInterp, which defers to the
 * tier-1 instruction evaluator.
 */

#ifndef MS_INTERP_THREADED_H
#define MS_INTERP_THREADED_H

#include <cstdint>

namespace sulong
{

/**
 * One entry per handler. Order is the dispatch-table order; keep
 * branches/returns first (hottest) and the interpreter escape hatch
 * last.
 */
#define MS_TOPS(X)                                                      \
    X(tBr)          /* unconditional jump */                            \
    X(tCondBr)      /* conditional jump on an i1 slot */                \
    X(tRet)         /* return a value */                                \
    X(tRetVoid)     /* return void */                                   \
    X(tICmp)        /* integer compare */                               \
    X(tICmpBr)      /* fused compare + branch */                        \
    X(tICmpLoad)    /* fused load + compare */                          \
    X(tICmpLoadBr)  /* fused load + compare + branch */                 \
    X(tIArith)      /* integer arithmetic */                            \
    X(tIArithL)     /* fused load + arith */                            \
    X(tIArithS)     /* arith + fused store */                           \
    X(tIArithLS)    /* fused load + arith + fused store */              \
    X(tFArith)      /* float arithmetic */                              \
    X(tFArithL)     /* fused load + float arith */                      \
    X(tFArithS)     /* float arith + fused store */                     \
    X(tFArithLS)    /* fused load + float arith + fused store */        \
    X(tFCmp)        /* float compare */                                 \
    X(tGep)         /* address arithmetic */                            \
    X(tLoad)        /* checked load (bounds/liveness/type/init) */      \
    X(tStore)       /* checked store */                                 \
    X(tAlloca)      /* stack allocation */                              \
    X(tSelect)      /* ternary select */                                \
    X(tFneg)        /* float negate */                                  \
    X(tTruncSext)   /* trunc / sext (shared makeInt path) */            \
    X(tZext)        /* zext */                                          \
    X(tCastOther)   /* fp<->int and fp resize casts */                  \
    X(tMove)        /* inline-splice slot move */                       \
    X(tInlineRet)   /* inline-splice return (move + jump) */            \
    X(tCallDirect)  /* direct call through a CallSite */                \
    X(tCallIndirect)/* indirect call through an inline cache */         \
    X(tInterp)      /* tier-1 evaluator escape hatch */                 \
    X(tUnreachable) /* 'unreachable' trap */

/// Flat dispatch opcode; values are dense dispatch-table indices.
enum class TOp : uint8_t
{
#define MS_TOP_ENUM(name) name,
    MS_TOPS(MS_TOP_ENUM)
#undef MS_TOP_ENUM
};

} // namespace sulong

#endif // MS_INTERP_THREADED_H
