"""The reverse-mode tensor engine underneath both encoders.

Run: python3 demos/03_autodiff.py
"""

import numpy as np

import moltext.tensor as T
from moltext.tensor import Tape, Tensor, check_gradient

# Recording happens only inside a Tape context; backward fills .grad on every
# leaf the loss depends on (x and w here), not on intermediate results.
x = Tensor(np.array([[1.0, -2.0], [3.0, 4.0]]), requires_grad=True)
w = Tensor(np.array([[0.5], [1.0]]), requires_grad=True)

with Tape() as tape:
    loss = T.tensor_sum(T.relu(T.matmul(x, w)))
tape.backward(loss)
print("loss:", loss.item())
print("dloss/dx:\n", x.grad)
print("dloss/dw:\n", w.grad)

# Every primitive's gradient is validated against central differences; the
# same helper is available for any scalar-valued composition.
z = Tensor(np.random.default_rng(0).normal(size=(4, 3)), requires_grad=True)
err = check_gradient(lambda t: T.mean(T.row_log_softmax(t)), z)
print(f"\nmax relative gradient error for mean(log_softmax): {err:.2e}")

# stop_gradient is an identity forward and a wall backward: useful when one
# branch should supply targets without learning from them.
a = Tensor(np.array([2.0, -1.0]), requires_grad=True)
with Tape() as tape:
    frozen = T.stop_gradient(a)
    loss = T.tensor_sum(T.mul(a, frozen))  # d/da of a * const
tape.backward(loss)
print("\ngradient of sum(a * stop_gradient(a)):", a.grad, "(equals a itself)")
