"""The four benchmark workloads: query generation, the timed call, and checks.

A workload turns (seed, seconds) into a fixed list of queries; the same pair
always gives the same list.  ``run`` is the only code inside the timed
region.  ``check`` is the query's oracle, run after the timed pass; each
oracle recomputes the answer another way (scalar ``color()``, nested loops,
from-scratch rebuilds, brute force) rather than trusting the function it
checks.  ``canon`` turns an answer into JSON for the answer digest.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np

import sumset_ramsey as sr
from sumset_ramsey import cli

POLY = {t: sr.parse_poly(t) for t in ("n", "2n", "3n", "n^5", "2n^5", "n^2", "n^3", "2n^2", "3n^3 + n")}
CASE2_PAIRS = (("n^2", "n^2 + n"), ("n^2", "n^2 + 2n"), ("n^3 - n", "n^3 + 3n^2 + 2n"))
REC_A = "recursive:P=n^2,Q=n^3,a0=15,window=1000000"
REC_B = "recursive:P=2n^2,Q=3n^3 + n,a0=14,window=1000000"
# every a0 in 15..40 passes check_admissible for (n^2, n^3)
ADMISSIBLE_A0 = range(15, 41)
# find_admissible_a0 results at the commit that introduced the benchmark
KNOWN_A0 = {("n^2", "n^3"): 15, ("2n^2", "3n^3 + n"): 14}


class Failed(Exception):
    """An answer that its oracle rejects."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise Failed(msg)


def polys_of(names) -> tuple:
    return tuple(POLY.get(t) or sr.parse_poly(t) for t in names)


def jitter(rng: random.Random, n: int) -> int:
    """n moved by up to 1/32 either way."""
    return n + rng.randrange(-(n // 32), n // 32 + 1)


def mpf_digest(v) -> str:
    sign, man, exp, bc = v._mpf_
    return f"{sign}:{man:x}:{exp}:{bc}"


def check_points(c, points, color: int, what: str) -> None:
    for p in points:
        expect(p >= 1 and c.color(int(p)) == color, f"{what}: point {p} is not color {color}")


class Workload:
    name = ""

    def __init__(self, seed: int, seconds: int, root: Path):
        self.seed = seed
        self.root = root
        self.rng = random.Random(f"{self.name}:{seed}")
        self.queries: list[dict] = []
        self.colorings: dict = {}
        self.generate(seconds)

    def build(self) -> None:
        """Build the colorings the queries reuse; part of set-up."""
        self.colorings = {key: sr.parse_coloring_spec(key.split("#")[0]) for key in self.coloring_keys()}

    def add(self, op: str, **params) -> None:
        params.setdefault("coloring", None)
        self.queries.append({"op": op, **params})

    def number(self) -> None:
        for i, q in enumerate(self.queries):
            q["id"] = i

    def coloring_keys(self) -> list[str]:
        return sorted({q["coloring"] for q in self.queries if q["coloring"]})

    def run(self, q: dict):
        return getattr(self, "run_" + q["op"])(q)

    def check(self, q: dict, answer) -> None:
        getattr(self, "check_" + q["op"])(q, answer)

    def check_all(self, results: list) -> list[tuple[int, str]]:
        """Checks that span several queries; (query id, message) per failure."""
        return []

    def canon(self, q: dict, answer):
        return answer

    # shared query kinds ------------------------------------------------------

    def run_bad_set(self, q):
        return sr.bad_set(self.colorings[q["coloring"]], q["n"], polys_of(q["polys"]), q["color"], q["M"])

    def check_bad_set(self, q, answer):
        elems, rep = answer
        c, n, color, M = self.colorings[q["coloring"]], q["n"], q["color"], q["M"]
        polys = polys_of(q["polys"])
        ms = [int(m) for m in elems.tolist()]
        expect(ms == sorted(set(ms)) and all(1 <= m <= M for m in ms), "bad set not sorted inside [1, M]")
        for m in ms:
            check_points(c, [n + P(m) for P in polys], color, f"bad set element {m}")
        rng = random.Random(f"check:{self.seed}:{q['id']}")
        inside = set(ms)
        for m in rng.sample(range(1, M + 1), 24):
            if m not in inside:
                vals = [n + P(m) for P in polys]
                expect(any(v < 1 or c.color(v) != color for v in vals), f"m = {m} is bad but missing")
        top = ms[-1] if ms else None
        expect(
            (rep.n, rep.color, rep.count, rep.max_element, rep.horizon) == (n, color, len(ms), top, M),
            f"report {rep} does not describe the set",
        )
        expect(rep.stabilized == (top is None or 2 * top <= M), "stabilized flag is wrong")

    def canon_bad_set(self, answer):
        elems, rep = answer
        return {"elems": elems.tolist(), "report": rep.to_json()}


# ---------------------------------------------------------------------------
# search: greedy configuration searches
# ---------------------------------------------------------------------------

SEARCH_KINDS = ("random2", "random3", "power2", "triple", "case2", "recursive")
# |C| floors: criterion 6 asks |C| >= 8 for palette-2 colorings in the capped
# shape; the others sit at or below the smallest |C| of a 24-seed sweep
FLOOR = {(2, True): 8, (2, False): 7, (3, True): 6, (3, False): 6}


class Search(Workload):
    name = "search"

    def spec(self, kind: str) -> str:
        if kind.startswith("random"):
            return f"random:k={kind[-1]},seed={self.rng.randrange(1 << 30)}"
        if kind == "case2":
            return "case2:P={},Q={}".format(*self.rng.choice(CASE2_PAIRS))
        return {"power2": "power2:1,2", "triple": "triple:1,2,3", "recursive": REC_A}[kind]

    def greedy(self, kind: str, N: int, capped: bool) -> None:
        palette = 3 if kind == "random3" else 2
        self.add(
            "greedy", coloring=self.spec(kind), polys=["n", "2n"], N=N, r=3,
            maxC=12 if capped else 8, cap=2048 if capped else None, floor=FLOOR[palette, capped],
        )

    def generate(self, seconds):
        # the large end of both N ranges once, every kind at the small end,
        # then cheap random-coloring queries so the tail has enough samples
        self.greedy("random2", 10**6, True)
        self.greedy("random3", jitter(self.rng, 15000), False)
        for kind in SEARCH_KINDS:
            self.greedy(kind, jitter(self.rng, 1 << 16), True)
            self.greedy(kind, jitter(self.rng, 5000), False)
        for i in range(max(0, round((seconds - 16) / 0.4))):
            self.greedy(SEARCH_KINDS[i % 2], jitter(self.rng, 5000), False)
        self.rng.shuffle(self.queries)
        self.number()

    def run_greedy(self, q):
        w = self.colorings[q["coloring"]].window(q["N"])
        return sr.greedy_search(w, polys_of(q["polys"]), q["r"], q["maxC"], candidate_cap=q["cap"])

    def check_greedy(self, q, cfg):
        N = q["N"]
        expect(len(cfg.B) == q["r"] and 1 <= cfg.B[0] and cfg.B[-1] <= N, "B is not r positions in the window")
        pts = cfg.points()
        expect(max(pts) <= N, "a point of B + P(C) leaves the window")
        check_points(self.colorings[q["coloring"]], pts, cfg.color, "greedy")
        expect(q["floor"] <= len(cfg.C) <= q["maxC"], f"|C| = {len(cfg.C)} misses the floor {q['floor']}")

    def canon(self, q, cfg):
        return cfg.to_json(q["N"])


# ---------------------------------------------------------------------------
# audit: exact bad-set enumeration and exhaustive search
# ---------------------------------------------------------------------------


class Audit(Workload):
    name = "audit"

    def generate(self, seconds):
        rng = self.rng
        blocks = max(1, round(seconds / 0.85))
        # exhaustive search costs grow as N^2 and its largest queries set the
        # tail, so the two larger N ranges are stratified over the blocks
        mid, big = stratified(rng, 60, 200, blocks), stratified(rng, 200, 400, blocks)
        for b in range(blocks):
            triple, geo3 = f"triple:1,2,3#{b}", f"geo3:1,2#{b}"
            pre = []
            for M in (10**6, 10**6, 2 * 10**6, 2 * 10**6):
                pre.append(dict(coloring=triple, polys=["n", "2n", "3n"], n=rng.randint(1, 30), color=rng.randint(1, 2), M=M))
                pre.append(dict(coloring=geo3, polys=["n", "2n"], n=rng.randint(1, 30), color=rng.randint(1, 3), M=M))
            for P, Q in CASE2_PAIRS:
                pre.append(dict(coloring=f"case2:P={P},Q={Q}#{b}", polys=[P, Q], n=rng.randint(1, 20), color=rng.randint(1, 2), M=10**4))
            rng.shuffle(pre)
            for d in pre:
                self.add("bad_set", **d)
            for N, size in ((rng.randint(15, 40), rng.randint(1, 2)), (mid[b], 2), (big[b], 2)):
                self.add("exhaustive", coloring=f"random:k=2,seed={rng.randrange(1 << 30)}", polys=["n", "2n"], N=N, r=2, sizeC=size)
            # values past 2^62 take the object path and push the coloring's
            # breakpoints past 2^63; every later vectorized call on the same
            # object then runs the scalar fallback loop
            for key in (triple, geo3):
                self.add("bad_set", coloring=key, polys=["n^5", "2n^5"], n=rng.randint(1, 30), color=rng.randint(1, 2), M=10**4)
            for key, polys, k in ((triple, ["n", "2n", "3n"], 2), (geo3, ["n", "2n"], 3)) * 2:
                self.add("bad_set", coloring=key, polys=polys, n=rng.randint(1, 30), color=rng.randint(1, k), M=3 * 10**4)
        self.number()

    def run_exhaustive(self, q):
        w = self.colorings[q["coloring"]].window(q["N"])
        return sr.exhaustive_search(w, polys_of(q["polys"]), q["r"], q["sizeC"])

    def check_exhaustive(self, q, cfg):
        c, N, polys = self.colorings[q["coloring"]], q["N"], polys_of(q["polys"])
        best = exhaustive_optimum(c, N, polys, q["sizeC"])
        if best < q["r"]:
            expect(cfg is None, f"oracle finds no configuration, search returned {cfg}")
            return
        expect(cfg is not None and cfg.survivors == best, f"survivors {cfg and cfg.survivors} != optimum {best}")
        expect(len(cfg.C) == q["sizeC"] and len(cfg.B) == q["r"], "wrong |B| or |C|")
        pts = cfg.points()
        expect(max(pts) <= N, "a point leaves the window")
        check_points(c, pts, cfg.color, "exhaustive")

    def canon(self, q, answer):
        if q["op"] == "bad_set":
            return self.canon_bad_set(answer)
        return None if answer is None else answer.to_json(q["N"])


def stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One integer from each of count equal strata of [lo, hi), strata shuffled."""
    return [lo + int((hi - lo) * (i + rng.random()) / count) for i in rng.sample(range(count), count)]


def exhaustive_optimum(c, N: int, polys, sizeC: int) -> int:
    """Best survivor count over all C of the given size, by boolean matrices."""
    cols = np.array([0] + [c.color(b) for b in range(1, N + 1)])
    cand = [x for x in range(1, N + 1) if max(P(x) for P in polys) < N]
    best = 0
    for color in range(1, c.palette + 1):
        ok = cols == color
        rows = np.zeros((len(cand), N + 1), dtype=np.int64)
        for i, x in enumerate(cand):
            row = np.ones(N + 1, dtype=bool)
            row[0] = False
            for P in polys:
                k = P(x)
                row[: N + 1 - k] &= ok[k:]
                row[N + 1 - k :] = False
            rows[i] = row
        if not cand:
            continue
        if sizeC == 1:
            best = max(best, int(rows.sum(axis=1).max()))
        else:
            pair = rows @ rows.T
            iu = np.triu_indices(len(cand), k=1)
            if iu[0].size:
                best = max(best, int(pair[iu].max()))
    return best


# ---------------------------------------------------------------------------
# highprec: admissibility scans, recursive colorings, psi, gowers
# ---------------------------------------------------------------------------


class Highprec(Workload):
    name = "highprec"

    def generate(self, seconds):
        rng = self.rng
        self.add("find_a0", pair=["n^2", "n^3"], scan_limit=rng.randint(100, 1000))
        self.add("find_a0", pair=["2n^2", "3n^3 + n"], scan_limit=rng.randint(100, 1000))
        self.add("gowers", k=8, N=int(10 ** rng.uniform(3, 12)))
        for b in range(max(1, round((seconds - 6.5) / 4.0))):
            block = []
            # a0 = 15 puts a dip zone of A_4 inside [1, 10^6]; from a0 = 19 on
            # the window holds none, so peak memory does not depend on the seed
            a0 = 15 if b == 0 else rng.randint(19, 40)
            build = dict(a0=a0, window_n=10**6 if b % 2 == 0 else 10**7, tag=f"rec{b}")
            for key, polys, M in ((REC_A, ["n^2", "n^3"], 5 * 10**4), (REC_B, ["2n^2", "3n^3 + n"], 10**5)):
                block.append(("bad_set", dict(coloring=key, polys=polys, n=rng.randint(1, 10), color=rng.randint(1, 2), M=M)))
            for pair in (["n^2", "n^3"], ["2n^2", "3n^3 + n"]) * 2:
                block.append(("psi_grid", dict(pair=pair, t0=rng.randint(3, 10**4), count=25)))
            N = int(10 ** rng.uniform(3, 12))
            block += [("gowers", dict(k=k, N=N)) for k in range(1, 8)]
            rng.shuffle(block)
            # the window query needs the coloring its build query made
            at = rng.randrange(len(block))
            block[at:at] = [("build", build), ("window", dict(of=build["tag"], N=10**6))]
            for op, params in block:
                self.add(op, **params)
        self.built = {}
        self.ln_cache = {}
        self.number()

    def run_find_a0(self, q):
        P, Q = polys_of(q["pair"])
        return sr.find_admissible_a0(P, Q, q["scan_limit"])

    def check_find_a0(self, q, a0):
        expect(a0 == KNOWN_A0[tuple(q["pair"])], f"a0 = {a0}, expected {KNOWN_A0[tuple(q['pair'])]}")

    def run_build(self, q):
        c = sr.recursive_log_coloring(POLY["n^2"], POLY["n^3"], a0=q["a0"], window_n=q["window_n"])
        self.built[q["tag"]] = c
        return c

    def check_build(self, q, c):
        want = reference_levels(q["a0"], len(c.levels), q["window_n"])
        expect([list(L) for L in c.levels] == want, "levels differ from the from-scratch rebuild")

    def run_window(self, q):
        return self.built[q["of"]].window(q["N"])

    def check_window(self, q, w):
        c = self.built[q["of"]]
        rng = random.Random(f"check:{self.seed}:{q['id']}")
        # every level-set member (the dip zones) plus a uniform sample
        pts = [z for L in c.levels for z in L if z <= q["N"]] + rng.sample(range(1, q["N"] + 1), 200)
        for z in pts:
            expect(int(w.colors[z]) == c.color(z), f"window color at {z} differs from color()")

    def run_psi_grid(self, q):
        P, Q = polys_of(q["pair"])
        return [sr.psi_eval(P, Q, P(t)) for t in range(q["t0"], q["t0"] + q["count"])]

    def check_psi_grid(self, q, vals):
        P, Q = polys_of(q["pair"])
        for t, got in zip(range(q["t0"], q["t0"] + q["count"]), vals):
            expect(abs(got - Q(t)) / Q(t) < 1e-9, f"psi(P({t})) != Q({t})")

    def run_gowers(self, q):
        return sr.gowers_threshold(q["k"], q["N"])

    def check_gowers(self, q, v):
        # ln N wide enough that the 2^-2^(k+9) correction shows; one value per
        # block's N serves all of its k <= 7
        bits = 2 ** (max(q["k"], 7) + 9) + 128
        key = (q["N"], bits)
        if key not in self.ln_cache:
            with mpmath.workprec(bits):
                self.ln_cache[key] = mpmath.ln(q["N"])
        lnN = self.ln_cache[key]
        expect(lnN - 1 < v < lnN, f"threshold is not just below ln N at k = {q['k']}")

    def check_all(self, results):
        # monotone in k at fixed N and in N at fixed k
        vals = {(q["k"], q["N"]): (q["id"], a) for q, a, err in results if q["op"] == "gowers" and err is None}
        bad = []
        for (k, N), (qid, v) in vals.items():
            for (k2, N2), (_, v2) in vals.items():
                if (k2 == k and N2 > N) or (N2 == N and k2 > k):
                    if not v < v2:
                        bad.append((qid, f"gowers not increasing from (k={k}, N={N}) to (k={k2}, N={N2})"))
        return bad

    def canon(self, q, answer):
        op = q["op"]
        if op == "bad_set":
            return self.canon_bad_set(answer)
        if op == "build":
            return [len(L) for L in answer.levels] + [sum(sum(L) for L in answer.levels)]
        if op == "window":
            return answer.counts()
        if op == "psi_grid":
            return [mpf_digest(v) for v in answer]
        if op == "gowers":
            return mpf_digest(answer)
        return answer


def reference_levels(a0: int, count: int, cap: int) -> list[list[int]]:
    """Level sets of the (n^2, n^3) coloring rebuilt from scratch, psi(t) = t^(3/2)."""
    with mpmath.workprec(300):
        a = [mpmath.mpf(a0)]
        for _ in range(count - 1):
            a.append(a[-1] ** (mpmath.mpf(3) / 2))
        levels: list[list[int]] = []
        for n in range(count):
            block = set()
            z = int(mpmath.ceil(a[n]))
            while z < a[n] + mpmath.log(a[n]):
                block.add(z)
                z += 1
            if n > 0:
                prev = set(levels[n - 1])
                top = max(prev, default=0)
                i = 0
                while i < mpmath.log(a[n - 1]):
                    j = 0
                    while i + j * j <= top:
                        if i + j * j in prev:
                            block.add(i + j * j * j)
                        j += 1
                    i += 1
            levels.append(sorted(x for x in block if x <= cap))
    return levels


# ---------------------------------------------------------------------------
# cli: cold subprocess invocations of every subcommand
# ---------------------------------------------------------------------------


class Cli(Workload):
    name = "cli"
    in_process = False  # run cli.run in this process instead of a fresh one

    def generate(self, seconds):
        rng = self.rng
        for _ in range(max(1, round(seconds / 10))):
            k = rng.randint(2, 3)
            self.add("cli", argv=["color", "--coloring", rng.choice([f"random:k={k},seed={rng.randrange(1000)}", "power2:1,2", "geo3:1,2"]), "--N", str(rng.randint(100, 2000))])
            self.add("cli", argv=["color", "--kind", "triple", "--a", "1", "--b", "2", "--c", "3", "--N", str(rng.randint(100, 2000)), "--out", "runlength"])
            self.add("cli", argv=["color", "--coloring", f"recursive:P=n^2,Q=n^3,a0={rng.choice(ADMISSIBLE_A0)},window=5000", "--N", str(rng.randint(1000, 5000))])
            self.add("cli", argv=["search", "--coloring", f"random:k=2,seed={rng.randrange(1000)}", "--polys", "n,2n", "--N", str(rng.randint(1000, 3000)), "--r", "3", "--maxC", "6"])
            self.add("cli", argv=["audit", "--coloring", "triple:1,2,3", "--polys", "n,2n,3n", "--n-max", str(rng.randint(2, 4)), "--M", str(rng.randint(5000, 20000))])
            ints = sorted(rng.sample(range(1, 200), rng.randint(20, 40)))
            self.add("cli", argv=["ap", "--set", ",".join(map(str, ints))])
            pat = "".join(rng.choice("12") for _ in range(rng.randint(3, 12)))
            self.add("cli", argv=["dynamics", "--op", "return", "--coloring", f"periodic:{pat}", "--N", "300", "--a", "1", "--b", str(rng.randint(2, 3)), "--h", str(rng.randint(0, 3)), "--M", str(rng.randint(20, 80)), "--window-sizes", "5,10"])
            self.add("cli", argv=["dynamics", "--op", "dichotomy", "--y", "periodic:" + "".join(rng.choice("12") for _ in range(4)), "--z", "periodic:" + "".join(rng.choice("12") for _ in range(6)), "--N", "400", "--a", "1", "--b", "2", "--D", str(rng.randint(5, 20)), "--K", str(rng.randint(10, 60))])
            M = rng.randint(30, 100)
            self.add("cli", argv=["dynamics", "--op", "density", "--set", ",".join(map(str, sorted(rng.sample(range(1, M + 1), M // 3)))), "--M", str(M), "--window-sizes", "2,5,10"])
            for p in witness_params(rng):
                self.add("cli", argv=["witness", *p, "--check"])
        self.number()
        self.schema = json.loads((self.root / "docs" / "schema.json").read_text())
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(self.root / "src"), os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep))

    def run_cli(self, q):
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            return cli.run(q["argv"], out, err), out.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "sumset_ramsey", *q["argv"]],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    def check_cli(self, q, answer):
        import jsonschema

        code, out = answer
        argv = q["argv"]
        expect(code == 0, f"exit code {code}")
        opts = dict(zip(argv[1::2], argv[2::2]))
        if opts.get("--out") == "runlength":
            lines = out.split("\n")
            expect(lines[:2] == ["palette 2", "start 1"], "run-length header")
            runs = [tuple(map(int, ln.split())) for ln in lines[2:] if ln]
            expect(sum(n for _, n in runs) == int(opts["--N"]), "runs do not cover [1, N]")
            check_runs(sr.triple_2coloring(1, 2, 3), runs)
            return
        doc = json.loads(out)
        jsonschema.validate(doc, self.schema)
        check_cli_doc(argv[0], opts, doc)

    def canon(self, q, answer):
        return answer


def witness_params(rng: random.Random) -> list[list[str]]:
    """One valid parameter set per witness variant, drawn as in criterion 9."""
    out = []
    while len(out) < 4:
        a = rng.randint(1, 3)
        b = rng.randint(a + 1, a + 3)
        r = rng.randint(1, 3)
        variant = ("stepi", "casei", "situationi", "situationii")[len(out)]
        if variant == "stepi":
            s, t = rng.randint(1, 6), a * rng.randint(1, 4)
            base = s + (r - 1) * t + a
            d = sorted(rng.sample(range(base + 1, base + 200), rng.randint(1, 4)))
            fields = dict(s=s, t=t, d_values=d)
            flags = ["--s", str(s), "--t", str(t), "--d", ",".join(map(str, d))]
        elif variant == "casei":
            E = b * (b - a) * rng.randint(1, 5)
            lo = a * b * (r + 1) + E // (b - a)
            v = [a * x for x in sorted(rng.sample(range(lo + 1, lo + 300), rng.randint(1, 3)))]
            fields = dict(E=E, v_values=v)
            flags = ["--E", str(E), "--v", ",".join(map(str, v))]
        elif variant == "situationi":
            L0, j, beta = rng.randint(r + 1, r + 5), rng.randint(1, 3), rng.randint(1, 3)
            offsets = sorted(rng.sample(range(1, L0), r))
            lo = ((j - 1) * beta + 1) * L0 * a * b
            v = [a * x for x in sorted(rng.sample(range(lo + 1, lo + 300), rng.randint(1, 3)))]
            fields = dict(j=j, beta=beta, L0=L0, offsets=offsets, v_values=v)
            flags = ["--j", str(j), "--beta", str(beta), "--L0", str(L0), "--offsets", ",".join(map(str, offsets)), "--v", ",".join(map(str, v))]
        else:
            L0, beta, alpha = rng.randint(2, 5), rng.randint(1, 2), rng.randint(1, 5)
            step = a * b * (b - a) * L0 * beta
            need = (alpha + (r - 1) * step + 1) * (b - a) // a + alpha
            xi = alpha + (b - a) * rng.randint(need, need + 50)
            base = (xi - alpha) // (b - a)
            v = [a * x for x in sorted(rng.sample(range(base + 1, base + 300), rng.randint(1, 3)))]
            fields = dict(xi=xi, alpha=alpha, beta=beta, L0=L0, v_values=v)
            flags = ["--xi", str(xi), "--alpha", str(alpha), "--beta", str(beta), "--L0", str(L0), "--v", ",".join(map(str, v))]
        dt = rng.randint(0, 9)
        try:
            sr.build_witness(sr.WitnessParams(variant=variant, a=a, b=b, r=r, d_tilde=dt, **fields))
        except sr.SumsetRamseyError:
            continue  # parameter draw outside the variant's domain; draw again
        out.append(["--variant", variant, "--a", str(a), "--b", str(b), "--r", str(r), "--dtilde", str(dt), *flags])
    return out


def check_runs(c, runs) -> None:
    z = 1
    for color, length in runs:
        expect(c.color(z) == color and c.color(z + length - 1) == color, f"run at {z} has the wrong color")
        z += length


def check_cli_doc(cmd: str, opts: dict, doc) -> None:
    """Semantic checks of one CLI document against scalar recomputation."""
    if cmd == "color":
        c = sr.parse_coloring_spec(opts["--coloring"])
        N = int(opts["--N"])
        expect(sum(doc["counts"]) == N and sum(n for _, n in doc["runs"]) == N, "counts or runs do not cover [1, N]")
        check_runs(c, doc["runs"])
    elif cmd == "search":
        c = sr.parse_coloring_spec(opts["--coloring"])
        pts = [h + int(P(k)) for P in polys_of(doc["polys"]) for h in doc["B"] for k in doc["C"]]
        expect(len(doc["B"]) == int(opts["--r"]) and max(pts) <= int(opts["--N"]), "B or points out of range")
        check_points(c, pts, doc["color"], "search")
    elif cmd == "audit":
        c = sr.parse_coloring_spec(opts["--coloring"])
        polys = polys_of(opts["--polys"].split(","))
        M = int(opts["--M"])
        expect(len(doc) == int(opts["--n-max"]) * c.palette, "one report per (n, color)")
        for rep in doc:
            top = rep.get("max_element")
            if top is not None:
                check_points(c, [rep["n"] + P(top) for P in polys], rep["color"], "audit max_element")
            expect(rep["stabilized"] == (top is None or 2 * top <= M), "stabilized flag")
    elif cmd == "ap":
        S = [int(x) for x in opts["--set"].split(",")]
        expect((doc["start"], doc["difference"], doc["length"]) == longest_ap_brute(S), "not the longest progression")
    elif cmd == "dynamics":
        check_dynamics(opts, doc)
    elif cmd == "witness":
        expect(doc["check"] is True and len(doc["B"]) == int(opts["--r"]), "witness identity check failed")


def longest_ap_brute(S) -> tuple[int, int, int]:
    pts = sorted(set(S))
    sset = set(pts)
    best = (1, 0, -pts[0])  # (length, -difference, -start)
    for i, s in enumerate(pts):
        for t in pts[i + 1 :]:
            d, length = t - s, 2
            while s + length * d in sset:
                length += 1
            best = max(best, (length, -d, -s))
    return (-best[2], -best[1], best[0])


def check_dynamics(opts: dict, doc) -> None:
    op = opts["--op"]
    if op == "density":
        S = {int(x) for x in opts["--set"].split(",")}
        M = int(opts["--M"])
        for row in doc:
            W = row["window"]
            want = max(sum(1 for s in S if t < s <= t + W) for t in range(M - W + 1)) / W
            expect(abs(row["density"] - want) < 1e-12, f"density at window {W}")
        return
    if op == "return":
        c = sr.parse_coloring_spec(opts["--coloring"])
        a, b, h, M = (int(opts[f]) for f in ("--a", "--b", "--h", "--M"))
        want = [n for n in range(1, M + 1) if c.color(h + a * n) == c.color(h + b * n)]
        expect(doc["elements"] == want and doc["count"] == len(want), "return set")
        gaps = [q - p for p, q in zip([0] + want, want + [M + 1])]
        expect(doc["max_gap"] == max(gaps), "max gap")
        return
    y, z = sr.parse_coloring_spec(opts["--y"]), sr.parse_coloring_spec(opts["--z"])
    a, b, D, K = (int(opts[f]) for f in ("--a", "--b", "--D", "--K"))
    found = None
    for d in range(1, D + 1):
        if y.color(d) != z.color(d) and all(
            y.color(d + a * (b - a) * k) == y.color(d) and z.color(d + b * (b - a) * k) == z.color(d)
            for k in range(1, K + 1)
        ):
            found = d
            break
    expect(doc == {"found": found is not None, "d": found}, "dichotomy")


WORKLOADS = {w.name: w for w in (Search, Audit, Highprec, Cli)}
