"""Seeded generator of simplicial actions for the generated-actions workload.

Every input is a cycle C_n or a grid torus with a finite group acting by
rotations, reflections or translations.  The family of inputs is fixed; the
seed picks which generators present each group (a rotation by any unit
multiple of n/k, a reflection about any axis) and a random relabelling of the
vertices.  None of the values in `theory()` depends on the labelling, so each
seed yields inputs with the same known answers.

Run `python3 benchmarks/generate.py --seed 7 --out DIR` to write the
`.cx`/`.act`/scenario JSON files and print their ids and theory values.
"""
from __future__ import annotations

import argparse
import json
import os
import random
from dataclasses import dataclass
from math import gcd, prod

# pipeline steps, as in efftc scenario files
CD_CRITERION = {"op": "lower", "method": "cd-criterion"}
ORBIT_NILPOTENCY = {"op": "cat-lower", "method": "orbit-nilpotency"}
CD_BOUND = {"op": "check", "method": "cd-bound"}
ZERO_DIVISOR = {"op": "lower", "method": "zero-divisor"}

EXACT_STEPS = ("cd-criterion", "orbit-nilpotency", "cd-bound")
# cd-bound builds the staircase product of the subdivided torus with itself:
# 12 s on a 4x3 torus, 23 s on a 4x4 torus, so it runs on 3x3 grids only
CHEAP_STEPS = ("cd-criterion", "orbit-nilpotency")
_STEPS = {"cd-criterion": CD_CRITERION, "orbit-nilpotency": ORBIT_NILPOTENCY,
          "cd-bound": CD_BOUND, "zero-divisor": ZERO_DIVISOR}


@dataclass(frozen=True)
class Spec:
    """One generated input: a shape, a group acting on it, the steps run."""

    id: str
    shape: str          # "cycle" (size (n,)) or "torus" (size (a, b))
    size: tuple
    group: str          # "cyclic" (order (k,)), "dihedral" (order (k,)),
                        # "translation" (order (p, q): Z_p x Z_q)
    order: tuple
    steps: tuple

    @property
    def group_order(self) -> int:
        if self.group == "dihedral":
            return 2 * self.order[0]
        if self.group == "translation":
            return self.order[0] * self.order[1]
        return self.order[0]

    @property
    def vertices(self) -> int:
        return prod(self.size)


def _cycle(n, k, group, steps=EXACT_STEPS):
    kind = "Z" if group == "cyclic" else "D"
    return Spec(f"c{n}-{kind}{k}", "cycle", (n,), group, (k,), steps)


def _torus(a, b, p, q, steps=EXACT_STEPS):
    return Spec(f"t{a}x{b}-Z{p}xZ{q}", "torus", (a, b), "translation", (p, q),
                steps)


SPECS = (
    # free rotations: the zero-divisor step runs on these (X x X is small)
    _cycle(12, 4, "cyclic", EXACT_STEPS + ("zero-divisor",)),
    _cycle(15, 3, "cyclic", EXACT_STEPS + ("zero-divisor",)),
    _cycle(16, 8, "cyclic", EXACT_STEPS + ("zero-divisor",)),
    _cycle(9, 9, "cyclic", EXACT_STEPS + ("zero-divisor",)),
    _cycle(16, 16, "cyclic", EXACT_STEPS + ("zero-divisor",)),
    _cycle(8, 8, "dihedral"),
    _cycle(12, 6, "dihedral"),
    _cycle(16, 8, "dihedral"),
    _cycle(10, 5, "dihedral"),
    _torus(3, 3, 1, 1),
    _torus(3, 3, 3, 1),
    _torus(4, 4, 1, 1),
    _torus(3, 3, 3, 3, CHEAP_STEPS),
    _torus(4, 4, 2, 1, CHEAP_STEPS),
    _torus(4, 3, 2, 3, CHEAP_STEPS),
    _torus(4, 4, 4, 1, CHEAP_STEPS),
    _torus(4, 4, 2, 2, CHEAP_STEPS),
)


def theory(spec: Spec) -> dict:
    """Known answers for the spec, from the topology of the input alone.

    - cd(C_n) = 1 and cd(T^2) = 2 over F2.
    - Fixed sets of nontrivial subgroups are empty (free actions) or finite
      sets of points (reflections), so the cd-criterion hypothesis holds, and
      the verdict is positive iff |G| <= cd(X).
    - The saturated diagonal is a union of graphs of circle or torus maps,
      so its cd equals cd(X) (|G| disjoint tori for free translations).
    - The orbit map C_n -> C_n/Z_k has degree k, so its image in H^1 is
      nonzero mod 2 iff k is odd; C_n/D_k is an arc, so nothing survives.
      T^2 -> T^2/(Z_p x Z_q) multiplies the two H^1 generators by p and q,
      so the image has cup length 2, 1 or 0 as both, one or neither is odd.
    - For a free rotation of C_n the kernel of H*(C_n x C_n) -> H*(diagonal
      graphs) is spanned by a + b and ab, whose products vanish: cup length 1,
      the classical zero-divisor cup length of S^1.
    """
    cd_x = 1 if spec.shape == "cycle" else 2
    if spec.group == "dihedral":
        nilpotency = 0
    elif spec.shape == "cycle":
        nilpotency = spec.order[0] % 2
    else:
        nilpotency = sum(o % 2 for o in spec.order)
    out = {"cd_x": cd_x, "hypothesis_ok": True,
           "criterion": "positive" if spec.group_order <= cd_x else "inconclusive",
           "orbit_nilpotency": nilpotency}
    if "cd-bound" in spec.steps:
        out["cd_diagonal"] = cd_x
        out["cd_bound"] = True
    if "zero-divisor" in spec.steps:
        out["zero_divisor"] = 1
    return out


def _maximal_simplices(spec: Spec) -> list[tuple]:
    if spec.shape == "cycle":
        (n,) = spec.size
        return [(i, (i + 1) % n) for i in range(n)]
    a, b = spec.size

    def v(i, j):
        return (i % a) * b + (j % b)

    tris = []
    for i in range(a):
        for j in range(b):
            tris.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            tris.append((v(i, j), v(i, j + 1), v(i + 1, j + 1)))
    return tris


def _unit(rng: random.Random, k: int) -> int:
    """A random generator of Z_k."""
    return rng.choice([j for j in range(1, k + 1) if gcd(j, k) == 1])


def _generators(spec: Spec, rng: random.Random) -> list[list[int]]:
    """Vertex permutations generating the group, in the natural labels."""
    if spec.shape == "cycle":
        (n,) = spec.size
        k = spec.order[0]
        step = _unit(rng, k) * (n // k)
        gens = [[(v + step) % n for v in range(n)]]
        if spec.group == "dihedral":
            axis = rng.randrange(n)
            gens.append([(axis - v) % n for v in range(n)])
        return gens
    a, b = spec.size
    p, q = spec.order
    di = _unit(rng, p) * (a // p)
    dj = _unit(rng, q) * (b // q)
    gens = []
    if p > 1:
        gens.append([((i + di) % a) * b + j for i in range(a) for j in range(b)])
    if q > 1:
        gens.append([i * b + (j + dj) % b for i in range(a) for j in range(b)])
    if not gens:
        gens.append(list(range(a * b)))     # the identity closes to {e}
    return gens


def relabelled(spec: Spec, seed: int):
    """(maximal simplices, generator permutations) in seeded random labels."""
    rng = random.Random(f"{seed}/{spec.id}")
    gens = _generators(spec, rng)
    n = spec.vertices
    label = list(range(n))
    rng.shuffle(label)
    simplices = [tuple(sorted(label[v] for v in s))
                 for s in _maximal_simplices(spec)]
    original = [0] * n
    for v in range(n):
        original[label[v]] = v
    perms = [[label[g[original[w]]] for w in range(n)] for g in gens]
    return simplices, perms


def write_input(spec: Spec, seed: int, out_dir: str) -> str:
    """Write spec's .cx, .act and scenario files; returns the scenario path."""
    simplices, perms = relabelled(spec, seed)
    base = os.path.join(os.path.abspath(out_dir), spec.id)
    with open(base + ".cx", "w", encoding="utf-8") as fh:
        fh.write("# maximal simplices, one per line\n")
        fh.writelines(" ".join(map(str, s)) + "\n" for s in sorted(simplices))
    with open(base + ".act", "w", encoding="utf-8") as fh:
        fh.write("# generators, one per line\n")
        fh.writelines(f"g{i}: " + " ".join(map(str, p)) + "\n"
                      for i, p in enumerate(perms, start=1))
    scenario = {
        "id": spec.id,
        "space": ({"kind": "sphere", "n": 1} if spec.shape == "cycle"
                  else {"kind": "torus", "n": 2}),
        "action": "trivial",
        "complex": base + ".cx",
        "simplicial_action": base + ".act",
        "pipeline": [_STEPS[s] for s in spec.steps],
        "expected": [],
    }
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(scenario, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return base + ".json"


def generate(seed: int, out_dir: str) -> list[tuple[Spec, str]]:
    os.makedirs(out_dir, exist_ok=True)
    return [(spec, write_input(spec, seed, out_dir)) for spec in SPECS]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory for the files")
    args = ap.parse_args(argv)
    for spec, path in generate(args.seed, args.out):
        print(spec.id, path, json.dumps(theory(spec), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
