"""Workload definitions, seeded input generation and the correctness reference.

Every code file a run hands to the program is a random *equivalent
presentation* of a base code from a fixed pool stored in `reference.json`:
columns are permuted, columns are scaled by +-1, and the generator rows are
mixed by a random invertible matrix. These moves preserve everything the
benchmark compares (weight distributions of the code and its dual, the column
matroid, self-duality and dual containment), so the values recorded once per
base code at the reference commit stay valid for every seed, while no two
invocations ever receive the same file. A `clifford --sample` invocation
skips the column permutation, because its sampled subsets are column masks.

Base codes are systematic [I_k | R] with R drawn at random. The `report_mid`
and `enum_large` pools redraw R until d >= 2 and d_dual >= 2; `small_many`
keeps whatever is drawn and adds a fixed share of k = 1, k = n and
zero-column codes, so inputs the program handles badly stay in the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
POOL_SIZE = 8

# ---------------------------------------------------------------------------
# GF(q) arithmetic, independent of the program under test. Element encodings
# follow the code-file format: base-p digits of a polynomial reduced by
# x^2+x+1 (q=4), x^3+x+1 (q=8) or x^2+1 (q=9).

_MODULI = {4: (2, (1, 1, 1)), 8: (2, (1, 1, 0, 1)), 9: (3, (1, 0, 1))}


def _ext_mul(a, b, p, modulus):
    m = len(modulus) - 1
    da = [(a // p**i) % p for i in range(m)]
    db = [(b // p**i) % p for i in range(m)]
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    for i in range(len(prod) - 1, m - 1, -1):
        c = prod[i]
        for j, cm in enumerate(modulus):
            prod[i - m + j] = (prod[i - m + j] - c * cm) % p
    return sum(c * p**i for i, c in enumerate(prod[:m]))


@dataclass(frozen=True)
class Field:
    q: int
    add: tuple
    mul: tuple
    minus_one: int


def make_field(q):
    if q in _MODULI:
        p, modulus = _MODULI[q]
        m = len(modulus) - 1

        def add(a, b):
            return sum(
                ((a // p**i) % p + (b // p**i) % p) % p * p**i for i in range(m)
            )

        def mul(a, b):
            return _ext_mul(a, b, p, modulus)
    else:
        def add(a, b):
            return (a + b) % q

        def mul(a, b):
            return (a * b) % q
    add_t = tuple(tuple(add(a, b) for b in range(q)) for a in range(q))
    mul_t = tuple(tuple(mul(a, b) for b in range(q)) for a in range(q))
    minus_one = next(a for a in range(q) if add_t[a][1] == 0)
    return Field(q=q, add=add_t, mul=mul_t, minus_one=minus_one)


def rref(field, rows):
    """Reduced row echelon form (nonzero rows only) and its pivot columns."""
    add, mul, q = field.add, field.mul, field.q
    inv = {a: next(b for b in range(1, q) if mul[a][b] == 1) for a in range(1, q)}
    neg = {a: next(b for b in range(q) if add[a][b] == 0) for a in range(q)}
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r0 = len(pivots)
        pivot = next((r for r in range(r0, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[r0], rows[pivot] = rows[pivot], rows[r0]
        s = inv[rows[r0][col]]
        rows[r0] = [mul[s][v] for v in rows[r0]]
        for r in range(len(rows)):
            f = rows[r][col]
            if r != r0 and f:
                rows[r] = [add[a][neg[mul[f][b]]] for a, b in zip(rows[r], rows[r0])]
        pivots.append(col)
    return tuple(tuple(r) for r in rows[: len(pivots)]), pivots


def space_key(field, rows, dual=False):
    """Canonical key of the row space of `rows`, or of its dual."""
    echelon, pivots = rref(field, rows)
    if dual:
        n = len(rows[0])
        neg = {a: next(b for b in range(field.q) if field.add[a][b] == 0)
               for a in range(field.q)}
        basis = []
        for j in (c for c in range(n) if c not in pivots):
            v = [0] * n
            v[j] = 1
            for r, p in enumerate(pivots):
                v[p] = neg[echelon[r][j]]
            basis.append(v)
        echelon = rref(field, basis)[0] if basis else ()
    return (field.q, len(rows[0]), echelon)


# ---------------------------------------------------------------------------
# Base codes


def systematic_code(q, n, k, rng, nondegenerate, zero_column=False):
    """Rows of [I_k | R] with R uniform over GF(q).

    With `nondegenerate`, R is redrawn until every row and column of R is
    nonzero, which for a systematic generator means d >= 2 and d_dual >= 2.
    With `zero_column`, the last column is forced to zero (d_dual = 1).
    """
    while True:
        R = [[rng.randrange(q) for _ in range(n - k)] for _ in range(k)]
        if zero_column:
            for row in R:
                row[-1] = 0
        if not nondegenerate or (
            all(any(row) for row in R)
            and all(any(row[j] for row in R) for j in range(n - k))
        ):
            break
    return [[int(i == j) for j in range(k)] + R[i] for i in range(k)]


def encode_rows(rows):
    return ["".join(str(v) for v in row) for row in rows]


def decode_rows(text_rows):
    return [[int(c) for c in row] for row in text_rows]


def present(field, rows, rng, permute=True):
    """A random equivalent generator matrix of the same code.

    Scaling uses only +-1, so C and its dual are scaled alike and
    self-duality is kept; the row mix is L*U with L unit lower triangular
    and U upper triangular with a nonzero diagonal, hence invertible.
    """
    q, add, mul = field.q, field.add, field.mul
    k, n = len(rows), len(rows[0])
    perm = list(range(n))
    if permute:
        rng.shuffle(perm)
    signs = [rng.choice((1, field.minus_one)) for _ in range(n)]
    cols = [[mul[signs[j]][row[perm[j]]] for j in range(n)] for row in rows]
    U = [[0] * k for _ in range(k)]
    L = [[0] * k for _ in range(k)]
    for i in range(k):
        U[i][i] = rng.randrange(1, q)
        L[i][i] = 1
        for j in range(i + 1, k):
            U[i][j] = rng.randrange(q)
            L[j][i] = rng.randrange(q)

    def matmul(A, B):
        out = []
        for a_row in A:
            acc = [0] * len(B[0])
            for a, b_row in zip(a_row, B):
                if a:
                    acc = [add[x][mul[a][y]] for x, y in zip(acc, b_row)]
            out.append(acc)
        return out

    return matmul(L, matmul(U, cols))


def code_text(q, rows):
    lines = [f"{q} {len(rows[0])} {len(rows)}"]
    lines += [" ".join(str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Workloads. A slot is one invocation per pass: a command, a code shape (or
# the extremal parameters) and how its base codes are drawn.


@dataclass(frozen=True)
class Slot:
    command: str  # weights | zeta | bounds | clifford | report | extremal
    q: int
    n: int
    k: int = 0
    kind: str = "nondegenerate"  # | random | zero_column
    c: int = 0  # extremal divisor
    sample: int = 0  # clifford --sample N

    @property
    def key(self):
        if self.command == "extremal":
            return f"extremal/q{self.q}/c{self.c}/n{self.n}"
        extra = f"/sample{self.sample}" if self.sample else ""
        return f"{self.command}/q{self.q}/n{self.n}/k{self.k}/{self.kind}{extra}"


# Small-code dimension per field: q^m words stays in the hundreds.
_SMALL_M = {2: 4, 3: 3, 4: 3, 5: 2, 7: 2, 8: 2, 9: 2}

# Mallows-Sloane types as (q, c, n values swept).
EXTREMAL_SWEEP = (
    (2, 2, range(2, 42, 2)),
    (2, 4, range(8, 72, 8)),
    (3, 3, range(4, 64, 4)),
    (4, 2, range(2, 42, 2)),
)


def _small_slots():
    slots = []
    for q, m in _SMALL_M.items():
        slots += [
            Slot("report", q, 6, 1, "random"),
            Slot("report", q, 6, 6, "random"),
            Slot("report", q, 7, m, "zero_column"),
            Slot("report", q, 8, m, "random"),
            Slot("report", q, 8, 8 - m, "random"),
            Slot("report", q, 9, m, "random"),
            Slot("report", q, 9, 9 - m, "random"),
            Slot("report", q, 10, m, "random"),
            Slot("report", q, 10, 10 - m, "random"),
        ]
    return slots


def _extremal_slots():
    return [
        Slot("extremal", q, n, c=c) for q, c, ns in EXTREMAL_SWEEP for n in ns
    ]


WORKLOADS = {
    # Shapes in report_mid and enum_large are chosen so that each invocation
    # costs about the same: the pooled median and tail then do not jump from
    # one shape to another as the number of passes in a run changes.
    "report_mid": [
        Slot("report", 2, 12, 5),
        Slot("report", 2, 12, 6),
        Slot("report", 3, 12, 5),
        Slot("report", 3, 12, 6),
        Slot("report", 4, 11, 5),
        Slot("report", 4, 11, 6),
    ],
    "enum_large": [
        Slot("weights", 2, 30, 13),
        Slot("zeta", 2, 26, 13),
        Slot("bounds", 3, 18, 9),
        Slot("weights", 3, 48, 8),
        Slot("weights", 4, 16, 7),
        Slot("zeta", 5, 16, 6),
        Slot("bounds", 8, 10, 5),
        Slot("zeta", 9, 56, 4),
        Slot("clifford", 2, 28, 10, sample=1500),
    ],
    "small_many": _small_slots() + _extremal_slots(),
}


def workload_fields(name):
    return sorted({slot.q for slot in WORKLOADS[name]})


# ---------------------------------------------------------------------------
# Invocations of one pass


@dataclass(frozen=True)
class Invocation:
    argv: list
    ref_key: str  # entry in the reference: slot key + base code index
    file_text: str | None = None


def build_pass(name, seed, pass_index, pool):
    """The invocations of one pass, fully determined by (name, seed, pass_index).

    Each code slot takes the next base code of its pool (from an offset drawn
    from the seed, so that a run uses the pool evenly) in a fresh
    presentation, so within a pass (and across passes) no file is given
    twice. Extremal slots of one Mallows-Sloane type split between plain and
    `--ultraspherical` by the seed; the smallest n of each type always runs
    with `--ultraspherical`, where the reference commit exits 2 (d < 3).
    """
    rng = random.Random(f"{name}/{seed}/{pass_index}")
    offsets = random.Random(f"{name}/{seed}")
    fields = {}
    out = []
    first_n = {(q, c): min(ns) for q, c, ns in EXTREMAL_SWEEP}
    for slot in WORKLOADS[name]:
        if slot.command == "extremal":
            ultra = slot.n == first_n[(slot.q, slot.c)] or rng.random() < 0.5
            argv = ["--json", "extremal", "--q", str(slot.q), "--c", str(slot.c),
                    "--n", str(slot.n)]
            if ultra:
                argv.append("--ultraspherical")
            out.append(Invocation(argv, slot.key + ("/ultra" if ultra else "")))
            continue
        field = fields.setdefault(slot.q, make_field(slot.q))
        index = (offsets.randrange(len(pool[slot.key])) + pass_index) % len(pool[slot.key])
        base = decode_rows(pool[slot.key][index])
        rows = present(field, base, rng, permute=not slot.sample)
        argv = ["--json", slot.command, None]
        if slot.sample:
            argv += ["--sample", str(slot.sample), "--seed", str(index)]
        out.append(Invocation(argv, f"{slot.key}#{index}", code_text(slot.q, rows)))
    return out


def write_pass_files(invocations, directory):
    """Write each invocation's code file and fill its argv placeholder."""
    directory.mkdir(parents=True, exist_ok=True)
    specs = []
    for i, inv in enumerate(invocations):
        argv = list(inv.argv)
        if inv.file_text is not None:
            path = directory / f"code{i:03d}.txt"
            path.write_text(inv.file_text)
            argv[argv.index(None)] = str(path)
        specs.append(argv)
    return specs


# ---------------------------------------------------------------------------
# Values compared with the reference. Verdict booleans and text renderings
# are left out, as are floating-point root radii; everything kept is exact.


def _terms(bi):
    return bi["terms"]


def _ratfun(f):
    return [_terms(f["num"]), _terms(f["den"])]


def _weights(r):
    return {k: r[k] for k in ("q", "n", "k", "d", "d_dual", "counts", "dual_counts")}


def _zeta(r):
    out = {k: r[k] for k in ("g", "g_dual", "deg_P", "P_at_1")}
    out["P"] = r["P"]["coeffs"]
    out["P_def1"] = r["P_def1"]["coeffs"]
    out["a"] = r["a_bound"]["a"]
    out["a_bound"] = r["a_bound"]["bound"]
    return out


def _rankgen(r):
    return {"W": _terms(r["W"]), "Wn": _terms(r["Wn"]),
            "Wn_plus": _ratfun(r["Wn_plus"]), "W_at_11": r["W_at_11"]}


def _twovar(r):
    if "Z" not in r:
        return None
    return {"Z": _ratfun(r["Z"]), "g": r["g"]}


_BOUND_KEYS = ("q", "n", "k", "d", "d_dual", "c", "singleton_bound",
               "divisibility_bound", "divisibility_lhs", "strong_bound",
               "strong_lhs")


def _bounds(r):
    out = {k: r[k] for k in _BOUND_KEYS if k in r}
    ms = r.get("mallows_sloane")
    if ms is not None:
        out["mallows_sloane"] = [ms["type"], ms["bound"]]
    za = r["zero_audit"]
    out["zero_audit"] = [za["zeros"], za["count"], za["bound"]]
    return out


def _clifford(r):
    return {
        "classification": r["classification"],
        "subsets_checked": r["subsets_checked"],
        "violations": len(r["violations"]),
        "equality_witnesses": len(r["equality_witnesses"]),
        "decompositions": sorted(
            [e["dim_on_subset"], e["dim_on_complement"], e["dim_formula"]]
            for e in r["decompositions"]
        ),
    }


def _extremal(r):
    out = {k: r[k] for k in ("q", "c", "n", "d", "solution_dim", "counts")}
    u = r.get("ultraspherical")
    if u is not None:
        out["ultraspherical"] = [u["m"], u["lambda"]]
    return out


_SECTIONS = {
    "weights": _weights, "zeta": _zeta, "rankgen": _rankgen,
    "twovar": _twovar, "bounds": _bounds, "clifford": _clifford,
    "extremal": _extremal,
}


def extract_values(command, report):
    """{section: values} for the JSON report of one command. A section whose
    values cannot be read is left out, so it counts as differing."""
    if command == "report":
        parts = {name: report[name] for name in _SECTIONS if name in report}
    else:
        parts = {command: report}
    out = {}
    for name, sub in parts.items():
        fn = _SECTIONS.get(name)
        try:
            values = fn(sub) if fn else None
        except (KeyError, TypeError, IndexError):
            values = None
        if values is not None:
            out[name] = values
    return out


def digest(values):
    blob = json.dumps(values, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def section_digests(command, stdout):
    """Digests of the compared values in a command's `--json` output, or {}
    when it printed no report."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return {}
    if not isinstance(report, dict):
        return {}
    return {k: digest(v) for k, v in extract_values(command, report).items()}


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def check(argv, exit_code, raised, stdout, expected):
    """None when the invocation agrees with the reference, else the reason.

    Exit 0 and 1 are interchangeable (verdicts are not compared); exit 2 is
    a failure only where the reference produced values.
    """
    if raised is not None:
        return f"raised {raised}"
    if exit_code not in (0, 1, 2):
        return f"exit code {exit_code}"
    ref_sections = expected["sections"]
    if exit_code == 2 and ref_sections:
        return "exit 2 where the reference has values"
    got = section_digests(argv[1], stdout) if ref_sections else {}
    for name, want in ref_sections.items():
        if got.get(name) != want:
            return f"values of {name!r} differ from the reference"
    return None
