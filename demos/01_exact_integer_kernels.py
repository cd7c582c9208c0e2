"""Exact integer linear algebra: the substrate for every membership question.

Subgroups of products of cyclic groups are integer lattices containing the
modulus relations, so echelon (Hermite) bases answer all membership, kernel,
and quotient questions exactly.  The Smith normal form and the mixed-modulus
solver shown here are built on that echelon: the Smith form alternates row
and column Hermite forms, and the solver returns the lexicographically least
solution.
"""

from groupwindows import IntMatrix, smith_normal_form, solve_mixed_modulus

# --- Smith normal form -------------------------------------------------

M = IntMatrix.from_rows([[2, 0], [0, 3]])
snf = smith_normal_form(M)
print("M =", M.data)
print("D =", snf.D.data, " (gcd of entries is 1, product of invariants is 6)")
print("U M V == D:", (snf.U @ M @ snf.V).data == snf.D.data)

M2 = IntMatrix.from_rows([[4, 6, 2], [6, 9, 3], [2, 3, 7]])
snf2 = smith_normal_form(M2)
print("\nA rank-deficient example:")
print("M =", M2.data)
print("diagonal:", snf2.D.diagonal())

# --- Mixed-modulus solving ---------------------------------------------

# is (0) a combination of the column (2) inside Z(4)?  x = 0 works
A = IntMatrix.from_rows([[2]])
print("\n2x = 0 (mod 4):", solve_mixed_modulus(A, [0], [4]))
# 2x = 1 (mod 4) has no solution: parity obstruction
print("2x = 1 (mod 4):", solve_mixed_modulus(A, [1], [4]))

# a two-unknown system over mixed moduli Z(4) x Z(9)
A = IntMatrix.from_rows([[2, 1], [0, 3]])
b = [3, 6]
x = solve_mixed_modulus(A, b, [4, 9])
print("\nA =", A.data, " b =", b, " mods = [4, 9]")
print("x =", x)
for i in range(2):
    lhs = sum(A.data[i][j] * x[j] for j in range(2))
    print(f"  row {i}: {lhs} = {b[i]} (mod {[4, 9][i]}):", (lhs - b[i]) % [4, 9][i] == 0)
