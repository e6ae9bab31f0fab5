"""Building the dependence system for a pair of array references.

Following the paper's problem definition (section 2): given two
references ``a[f1(i)]...[fm(i)]`` and ``a[f1'(i')]...[fm'(i')]`` inside
loop nests with affine trapezoidal bounds, the references are dependent
iff there exist integer iteration vectors ``i`` and ``i'`` satisfying

    fk(i) == fk'(i')          for every dimension k        (equalities)
    L_j(..) <= i_j <= U_j(..) for every enclosing loop      (bounds)

:class:`DependenceProblem` holds exactly this system over the combined
variable space ``[i vars, primed i' vars, symbolic terms]``.  The
second reference's loop variables are renamed with a prime so that the
two iteration vectors are independent unknowns; loop-invariant symbols
are shared between both sides (section 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.affine import AffineExpr
from repro.ir.arrays import ArrayRef
from repro.ir.loops import LoopNest
from repro.ir.program import AccessSite
from repro.system.constraints import ConstraintSystem, LinearConstraint, mask_bits

__all__ = [
    "DependenceProblem",
    "build_problem",
    "build_problem_from_sites",
    "Direction",
]


class Direction:
    """Direction-vector component values (paper section 6)."""

    LT = "<"
    EQ = "="
    GT = ">"
    ANY = "*"

    ALL = (LT, EQ, GT)


# Lazily bound byte-key codec.  ``repro.core.memo`` owns the encoder
# and the global intern table, but importing it at module scope would
# cycle through ``repro.core.__init__`` back into this module.
_CODEC: tuple = ()


def _memo_codec():
    global _CODEC
    if not _CODEC:
        from repro.core.memo import encode_key, intern_key

        _CODEC = (encode_key, intern_key)
    return _CODEC


@dataclass(slots=True)
class DependenceProblem:
    """The integer system whose solvability decides dependence.

    Attributes:
        names: combined variable names, nest1 vars first, then primed
            nest2 vars, then sorted symbolic terms.
        equations: subscript equalities as ``(coeffs, rhs)`` meaning
            ``coeffs . x == rhs``.
        bounds: the loop-bound inequalities over the same variables.
        n1, n2: loop depths of the two nests.
        n_common: number of leading loops the two nests share — the
            levels for which direction vector components are defined.
    """

    names: tuple[str, ...]
    equations: list[tuple[tuple[int, ...], int]]
    bounds: ConstraintSystem
    n1: int
    n2: int
    n_common: int
    symbols: tuple[str, ...]
    # Per-instance cache of the two serializations.  The analyzer probes
    # key_vector up to three times per query (symmetry canonicalization,
    # the no-bounds table and the with-bounds table); the encoding walks
    # every equation and bound, so recomputing it dominated the memo-hit
    # fast path.  Instances are never mutated after construction.
    _key_cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # -- variable indexing ----------------------------------------------------

    def var1(self, level: int) -> int:
        """Index of nest1's loop variable at ``level`` (0-based)."""
        if not 0 <= level < self.n1:
            raise IndexError(level)
        return level

    def var2(self, level: int) -> int:
        """Index of nest2's (primed) loop variable at ``level``."""
        if not 0 <= level < self.n2:
            raise IndexError(level)
        return self.n1 + level

    @property
    def n_vars(self) -> int:
        return len(self.names)

    # -- direction and distance ------------------------------------------------

    def direction_rows(
        self, level: int, relation: str
    ) -> list[tuple[tuple[tuple[int, int], ...], int]]:
        """Rows over x expressing ``i_level relation i'_level``.

        ``<`` means ``i < i'`` (i.e. ``i - i' <= -1``), ``=`` both
        ``i - i' <= 0`` and ``i' - i <= 0``, ``>`` means ``i' - i <= -1``.
        ``*`` adds nothing.  Each row is ``(((var, coeff), ...), bound)``,
        the sparse form :meth:`TransformedSystem.rows` rewrites into t.
        """
        if relation == Direction.ANY:
            return []
        if level >= self.n_common:
            raise IndexError(f"level {level} beyond common depth {self.n_common}")
        i1, i2 = self.var1(level), self.var2(level)
        if relation == Direction.LT:
            return [(((i1, 1), (i2, -1)), -1)]
        if relation == Direction.GT:
            return [(((i1, -1), (i2, 1)), -1)]
        if relation == Direction.EQ:
            return [(((i1, 1), (i2, -1)), 0), (((i1, -1), (i2, 1)), 0)]
        raise ValueError(f"bad direction {relation!r}")

    def distance_coeffs(self, level: int) -> tuple[list[int], int]:
        """The expression ``i'_level - i_level`` as (coeffs over x, const)."""
        coeffs = [0] * self.n_vars
        coeffs[self.var2(level)] = 1
        coeffs[self.var1(level)] = -1
        return coeffs, 0

    # -- canonical serialization (memoization keys) -----------------------------

    def key_vector(self, with_bounds: bool) -> tuple[int, ...]:
        """Flatten the problem into one integer vector (paper section 5).

        The encoding is positional: loop variables are identified by
        nesting position and symbols by their (sorted) slot, so two
        problems that differ only in variable names serialize
        identically.  The no-bounds key determines the equation matrix
        completely — a hit allows reusing the GCD factorization.
        """
        cached = self._key_cache.get(with_bounds)
        if cached is not None:
            return cached
        key = tuple(self._key_elements(with_bounds))
        self._key_cache[with_bounds] = key
        return key

    def _key_elements(self, with_bounds: bool) -> list[int]:
        vec: list[int] = [
            self.n1,
            self.n2,
            self.n_common,
            self.n_vars,
            len(self.equations),
        ]
        for coeffs, rhs in self.equations:
            vec.append(rhs)
            entries = [(j, c) for j, c in enumerate(coeffs) if c != 0]
            vec.append(len(entries))
            for j, c in entries:
                vec.extend((j, c))
        if with_bounds:
            vec.append(len(self.bounds.constraints))
            for con in self.bounds.constraints:
                vec.append(con.bound)
                entries = [
                    (j, c) for j, c in enumerate(con.coeffs) if c != 0
                ]
                vec.append(len(entries))
                for j, c in entries:
                    vec.extend((j, c))
        return vec

    def key_bytes(self, with_bounds: bool) -> bytes:
        """The key vector as interned zigzag-varint bytes (memo keys).

        ``key_bytes(b) == encode_key(key_vector(b))`` by construction;
        the bytes form skips the tuple entirely and is interned through
        the global table in :mod:`repro.core.memo`, so a repeated
        problem's memo probe hashes one shared bytes object.
        """
        # Cache slots 2/3 (bytes) are disjoint from the tuple slots
        # False==0 / True==1.
        slot = 3 if with_bounds else 2
        cached = self._key_cache.get(slot)
        if cached is not None:
            return cached
        encode, intern = _memo_codec()
        data = intern(encode(self._key_elements(with_bounds)))
        self._key_cache[slot] = data
        return data

    def swapped(self) -> "DependenceProblem":
        """The same dependence question with the two references swapped.

        Comparing ``a[i]`` to ``a[i-1]`` is the same problem as
        comparing ``a[i-1]`` to ``a[i]`` (the paper's symmetry
        optimization, section 5): the swapped problem puts nest2's
        variables first and negates the equations.  Verdicts agree;
        distances and directions flip sign/orientation.
        """
        # permutation: new order = [group2, group1, symbols]
        order = (
            list(range(self.n1, self.n1 + self.n2))
            + list(range(self.n1))
            + list(range(self.n1 + self.n2, self.n_vars))
        )

        def permute(coeffs: tuple[int, ...]) -> tuple[int, ...]:
            return tuple(coeffs[old] for old in order)

        new_names = tuple(self.names[old] for old in order)
        new_equations = [
            (tuple(-c for c in permute(coeffs)), -rhs)
            for coeffs, rhs in self.equations
        ]
        new_bounds = ConstraintSystem(new_names)
        # Bound constraints come in nest1-then-nest2 order; emit the
        # swapped problem's in its own nest order for key stability.
        nest1_mask = (1 << self.n1) - 1
        nest2_mask = ((1 << self.n2) - 1) << self.n1
        group1, group2, rest = [], [], []
        for c in self.bounds.constraints:
            if c.mask & nest1_mask:
                group1.append(c)
            elif c.mask & nest2_mask:
                group2.append(c)
            else:
                rest.append(c)
        for con in group2 + group1 + rest:
            new_bounds.add_constraint(LinearConstraint(permute(con.coeffs), con.bound))
        return DependenceProblem(
            names=new_names,
            equations=new_equations,
            bounds=new_bounds,
            n1=self.n2,
            n2=self.n1,
            n_common=self.n_common,
            symbols=self.symbols,
        )

    # -- unused-variable elimination ----------------------------------------------

    def used_variable_closure(self, extra: set[int] | None = None) -> set[int]:
        """Variables reachable from the subscript equations.

        A loop variable is *used* if it occurs in a subscript equation,
        or (transitively) in the bound constraint of a used variable.
        Bound constraints on unused variables add no information (the
        loops are assumed non-empty) and dropping them merges cases that
        differ only in irrelevant surrounding loops (section 5).

        ``extra`` seeds the closure with additional variables to keep
        (the direction-vector path must retain both variables of any
        common level it intends to refine, plus everything their bounds
        reference — see :meth:`eliminate_unused`).
        """
        used = 0
        for coeffs, _ in self.equations:
            for j, c in enumerate(coeffs):
                if c:
                    used |= 1 << j
        for v in extra or ():
            used |= 1 << v
        changed = True
        while changed:
            changed = False
            for con in self.bounds.constraints:
                if con.mask & used and con.mask & ~used:
                    used |= con.mask
                    changed = True
        return set(mask_bits(used))

    def eliminate_unused(
        self, extra_keep: set[int] | None = None
    ) -> tuple["DependenceProblem", list[int]]:
        """Project away unused variables and their bound constraints.

        Returns the reduced problem and, for each *common* level, whether
        it survived (list of surviving common level numbers).  Loop
        structure bookkeeping (n1/n2/n_common) is recomputed over the
        surviving variables; the caller uses the survivor list to map
        direction-vector components back (dropped levels get ``*``).

        ``extra_keep`` force-retains variables beyond the equation
        closure (their bound constraints, and transitively everything
        those reference, are retained too).  The direction-vector path
        uses this: a ``*`` lift is only exact for a common level whose
        two variables are *both* unused and whose loop has constant
        bounds, so :meth:`DependenceAnalyzer.directions` keeps every
        other level in the system instead of dropping it.

        The result is cached per ``extra_keep`` (problems are immutable
        once built, and the analyzer's problem cache replays identical
        queries against the same instance).  When ``extra_keep`` adds
        nothing to the equations' closure and that closure's reduction
        is cached already, the same reduced problem comes back, so a
        pair's plain and direction queries share one object.
        """
        cache_key = (
            "elim",
            None if extra_keep is None else frozenset(extra_keep),
        )
        cached = self._key_cache.get(cache_key)
        if cached is not None:
            reduced, surviving = cached
            return reduced, list(surviving)
        used = self.used_variable_closure(extra_keep)
        if extra_keep:
            plain = self._key_cache.get(("elim", None))
            # The closure only grows with extra_keep: equal sizes mean
            # equal variable sets.
            if plain is not None and plain[0].n_vars == len(used):
                self._key_cache[cache_key] = plain
                return plain[0], list(plain[1])
        keep = sorted(used)
        unused_mask = ~sum(1 << v for v in keep)

        def project(coeffs: tuple[int, ...]) -> tuple[int, ...]:
            return tuple(coeffs[old] for old in keep)

        new_names = tuple(self.names[old] for old in keep)
        new_equations = [(project(c), rhs) for c, rhs in self.equations]
        new_bounds = ConstraintSystem(new_names)
        for con in self.bounds.constraints:
            if not con.mask & unused_mask:
                new_bounds.add_constraint(
                    LinearConstraint(project(con.coeffs), con.bound)
                )

        kept1 = [lvl for lvl in range(self.n1) if lvl in used]
        kept2 = [lvl for lvl in range(self.n2) if (self.n1 + lvl) in used]
        surviving_common = [
            lvl
            for lvl in range(self.n_common)
            if lvl in used and (self.n1 + lvl) in used
        ]
        # The projection must keep nest1 vars before nest2 vars before
        # symbols; variable order within each group is preserved because
        # ``keep`` is sorted.
        n1_new = len(kept1)
        n2_new = len(kept2)
        # Common levels must stay aligned: a common level survives only if
        # both of its variables do, and all earlier common levels kept the
        # alignment.  Compute the new common depth as the length of the
        # aligned prefix.
        n_common_new = 0
        for lvl in surviving_common:
            pos1 = kept1.index(lvl)
            pos2 = kept2.index(lvl)
            if pos1 == pos2 == n_common_new:
                n_common_new += 1
            else:
                break
        new_symbols = tuple(
            name for name in new_names if name in self.symbols
        )
        reduced = DependenceProblem(
            names=new_names,
            equations=new_equations,
            bounds=new_bounds,
            n1=n1_new,
            n2=n2_new,
            n_common=n_common_new,
            symbols=new_symbols,
        )
        surviving = surviving_common[:n_common_new]
        self._key_cache[cache_key] = (reduced, tuple(surviving))
        return reduced, surviving

    def __str__(self) -> str:
        eqs = "\n".join(
            "  "
            + " + ".join(
                f"{c}*{self.names[j]}" for j, c in enumerate(coeffs) if c != 0
            )
            + f" = {rhs}"
            for coeffs, rhs in self.equations
        )
        return f"DependenceProblem over {self.names}:\n{eqs}\n{self.bounds}"


def _prime(name: str) -> str:
    return name + "'"


def build_problem(
    ref1: ArrayRef, nest1: LoopNest, ref2: ArrayRef, nest2: LoopNest
) -> DependenceProblem:
    """Construct the dependence system for two references.

    The references must name the same array with equal rank.  Free
    variables of subscripts or bounds that are not loop variables of
    their nest are treated as shared loop-invariant symbols.
    """
    if ref1.array != ref2.array:
        raise ValueError("references name different arrays")
    if ref1.rank != ref2.rank:
        raise ValueError(
            f"rank mismatch for array {ref1.array!r}: {ref1.rank} vs {ref2.rank}"
        )

    n_common = nest1.common_prefix_depth(nest2)
    vars1 = nest1.variables
    vars2 = nest2.variables
    prime_map = {name: _prime(name) for name in vars2}
    ref2p = ref2.rename(prime_map)
    loops2p = [loop.rename(prime_map) for loop in nest2]

    free1 = (ref1.variables() | nest1.symbols()) - set(vars1)
    free2: set[str] = set(ref2p.variables())
    for loop in loops2p:
        free2 |= loop.lower.variables() | loop.upper.variables()
    free2 -= set(prime_map.values())
    # A symbol shared by both sides (loop-invariant unknown) appears once.
    symbols = sorted(free1 | free2)

    names = tuple(vars1) + tuple(prime_map[v] for v in vars2) + tuple(symbols)
    # Equations and bounds are assembled straight from the expressions'
    # term maps — equivalent to the AffineExpr arithmetic
    # (``sub1 - sub2``, ``lower - var``, ``var - upper``) but without
    # allocating the intermediate expression objects, which dominated
    # the cold-query profile.
    slot = {name: j for j, name in enumerate(names)}
    n = len(names)

    equations: list[tuple[tuple[int, ...], int]] = []
    for sub1, sub2 in zip(ref1.subscripts, ref2p.subscripts):
        row = [0] * n
        for name, c in sub1._terms.items():
            row[slot[name]] += c
        for name, c in sub2._terms.items():
            row[slot[name]] -= c
        # sub1 - sub2 == 0  ==>  row . x == sub2.const - sub1.const
        equations.append((tuple(row), sub2.constant - sub1.constant))

    bounds = ConstraintSystem(names)
    for loop in list(nest1) + loops2p:
        var_slot = slot[loop.var]
        # lower <= var   ==>   (lower - var) <= 0
        row = [0] * n
        for name, c in loop.lower._terms.items():
            row[slot[name]] += c
        row[var_slot] -= 1
        bounds.add(row, -loop.lower.constant)
        # var <= upper   ==>   (var - upper) <= 0
        row = [0] * n
        for name, c in loop.upper._terms.items():
            row[slot[name]] -= c
        row[var_slot] += 1
        bounds.add(row, loop.upper.constant)

    return DependenceProblem(
        names=names,
        equations=equations,
        bounds=bounds,
        n1=len(vars1),
        n2=len(vars2),
        n_common=n_common,
        symbols=tuple(symbols),
    )


def build_problem_from_sites(
    site1: AccessSite, site2: AccessSite
) -> DependenceProblem:
    return build_problem(site1.ref, site1.nest, site2.ref, site2.nest)
