"""Two ops the package itself never runs: an elementwise product and a
total.  Tests use them to project an op's output to a scalar for
`grad_check` and the acceptance probes.  They record through `graph_out`
as the package's ops do, and their closures hold records and arrays.
"""

import numpy as np

from shiftconvnet.autograd import (
    ContractViolation,
    Tensor,
    accumulate_grad,
    graph_out,
    record_of,
)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """The elementwise product of two same-shape tensors."""
    if a.shape != b.shape:
        raise ContractViolation(
            f"mul shape mismatch: {tuple(a.shape)} vs {tuple(b.shape)}"
        )
    ad, bd, ar, br = a.data, b.data, record_of(a), record_of(b)

    def bwd(g):
        accumulate_grad(ar, g * bd)
        accumulate_grad(br, g * ad)

    return graph_out(ad * bd, (a, b), bwd)


def sum_all(a: Tensor) -> Tensor:
    """Sum over every element, producing a (1, 1, 1, 1) scalar tensor."""
    out = a.data.sum(dtype=a.dtype).reshape(1, 1, 1, 1)
    ar = record_of(a)

    def bwd(g):
        accumulate_grad(ar, np.full(ar.shape, g.reshape(()), ar.dtype))

    return graph_out(out, (a,), bwd)
