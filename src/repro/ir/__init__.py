"""Three-address intermediate representation for MiniC.

This package substitutes for LLVM IR in the reproduction.  The paper's
SPEX "works on LLVM's intermediate code representation ... in the
static single assignment form" (§2.3); here, expression temporaries are
single-assignment while named variables are explicit storage, which
gives the same def-use and dominance facts SPEX consumes without a full
mem2reg pass.

Layout:

* :mod:`repro.ir.values`       - operands (temps, constants, variables)
* :mod:`repro.ir.instructions` - the instruction set
* :mod:`repro.ir.function`     - IRFunction / BasicBlock containers
* :mod:`repro.ir.builder`      - AST -> IR lowering
* :mod:`repro.ir.cfg`          - dominators, postdominators, control deps
"""

from repro.ir.builder import build_ir
from repro.ir.function import BasicBlock, IRFunction, IRModule

__all__ = [
    "BasicBlock",
    "IRFunction",
    "IRModule",
    "build_ir",
]
