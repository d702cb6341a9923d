"""Mixed-norm recovery on a certified instance: exact recovery from
noiseless data, stable recovery within the error bound from noisy data,
agreement with the brute-force combinatorial oracle, and both error bounds
on a compressible signal at its measured tail norm.

Run:  python demos/04_recovery.py
"""

import numpy as np

from blockcs import (
    BlockSignal,
    BlockStructure,
    apply,
    best_block_approx,
    brute_force_l20,
    check_condition,
    error_bound_loose,
    error_bound_tight,
    exact_block_ric,
    mixed_norm_2_1,
    solve_noiseless,
    solve_noisy,
    spread_kernel_matrix,
)

rng = np.random.Generator(np.random.Philox(key=7))
structure = BlockStructure.uniform(2, 12)
phi = spread_kernel_matrix(21, structure, seed=3)
delta = exact_block_ric(phi, 2).delta
print("instance: 21x24, blocks of 2; exact delta_2 =", round(delta, 4))
print("condition holds:", check_condition(delta, 1.0, 2).ok)

# A block 2-sparse truth.
coeffs = np.zeros(24)
coeffs[6:8] = [1.2, -0.5]
coeffs[18:20] = [0.4, 2.0]
x = BlockSignal(coeffs, structure)

# Noiseless: the minimizer is the truth.
b = apply(phi, x)
res = solve_noiseless(phi, b, truth=x)
print("\nnoiseless solve: converged =", res.converged,
      " iterations =", res.iterations)
print("  ||x* - x||_2 =", f"{res.error_vector_norm:.2e}")

oracle = brute_force_l20(phi, b, s_max=2)
print("  oracle support:", oracle.support, " solver/oracle gap =",
      f"{np.linalg.norm(res.estimate.coeffs - oracle.estimate.coeffs):.2e}")

# Noisy: error stays within the evaluated bound.
rho = 1e-2
xi = rng.standard_normal(21)
xi *= rho / np.linalg.norm(xi)
res_n = solve_noisy(phi, b + xi, rho, truth=x)
tight = error_bound_tight(1.0, 2, delta, rho, 0.0)
loose = error_bound_loose(1.0, 2, delta, rho, 0.0)
print(f"\nnoisy solve at rho = {rho}:")
print(f"  ||x* - x||_2 = {res_n.error_vector_norm:.4e}")
print(f"  tight bound  = {tight.bound:.4e}")
print(f"  loose bound  = {loose.bound:.4e}")

# Compressible: 2 standard-normal head blocks, every other block of norm
# 1e-2 * U(0, 1).  Both bounds are evaluated at the measured tail norm.
head = rng.choice(structure.num_blocks, size=2, replace=False)
coeffs = np.zeros(24)
for i in range(structure.num_blocks):
    v = rng.standard_normal(2)
    coeffs[structure.block_slice(i)] = v if i in head else v * (1e-2 * rng.uniform() / np.linalg.norm(v))
x_c = BlockSignal(coeffs, structure)
tail_norm = mixed_norm_2_1(best_block_approx(x_c, 2).tail)
xi = rng.standard_normal(21)
xi *= rho / np.linalg.norm(xi)
res_c = solve_noisy(phi, apply(phi, x_c) + xi, rho, truth=x_c)
tight = error_bound_tight(1.0, 2, delta, rho, tail_norm)
loose = error_bound_loose(1.0, 2, delta, rho, tail_norm)
print(f"\ncompressible truth (head blocks {sorted(head.tolist())}) at rho = {rho}:")
print(f"  tail norm    = {tail_norm:.4e}")
print(f"  ||x* - x||_2 = {res_c.error_vector_norm:.4e}")
print(f"  tight bound  = {tight.bound:.4e}")
print(f"  loose bound  = {loose.bound:.4e}")
