"""The benchmark's workloads: instance generation, the timed call, and checks.

Every instance comes from xoshiro256** (`harmgerm.rng`) seeded by the
workload seed, the workload tag, the stream (timed operations or
warm-ups) and the instance index, so the same seed gives the same inputs on every run.
The library receives only the generated polynomials. Timed calls go
through the `harmgerm` package attributes, so a traced run sees them.

An instance's `label` names the size class whose median latency is
reported on its own; `kmin` and `kmax` pick the labels of the smallest
and the largest size in the mix.

`nominal_cycle_s` is how long one cycle of the mix takes on the
reference machine (2-core Xeon, pure backend, Python 3.11). It turns
--seconds into a fixed number of cycles, so that every run of a
workload, on any commit, times the same operations.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass
from functools import partial

import harmgerm
from harmgerm import Poly, absorption_profile, format_poly, harmonic_pair, kernel_basis
from harmgerm.rng import Xoshiro256StarStar, derive_seed, random_homogeneous, random_in_span

CHILD_TIMEOUT_S = 60
X = Poly.monomial(1, 0)
Y = Poly.monomial(0, 1)


@dataclass(frozen=True)
class Instance:
    label: str
    payload: tuple


def reduction_parts(rng, k):
    """A random perturbation in each offset's iterated-Laplacian kernel and a degree-(2k-3) tail."""
    rhos = {
        s: random_in_span(rng, kernel_basis(k + s, power).basis)
        for s, power in absorption_profile(k).exponents
    }
    return rhos, random_homogeneous(rng, 2 * k - 3)


def determinacy_tail(rng, k):
    """Random homogeneous terms in every degree k+1..2k-3."""
    tail = Poly.zero()
    for d in range(k + 1, 2 * k - 2):
        tail = tail + random_homogeneous(rng, d)
    return tail


def rescale(p):
    """p composed with z -> (1+i)z, i.e. (x, y) -> (x - y, x + y)."""
    u, v = X - Y, X + Y
    u_pow, v_pow = [Poly.constant(1)], [Poly.constant(1)]
    out = Poly.zero()
    for (a, b), c in p.terms():
        while len(u_pow) <= a:
            u_pow.append(u_pow[-1] * u)
        while len(v_pow) <= b:
            v_pow.append(v_pow[-1] * v)
        out = out + u_pow[a] * v_pow[b] * c
    return out


class _Sized:
    """A workload whose instances cycle through the degrees in `sizes`."""

    in_children = False

    @property
    def cycle(self):
        return len(self.sizes)

    @property
    def warmups(self):
        """One untimed operation per size fills the library's caches."""
        return len(self.sizes)

    @property
    def kmin(self):
        return f"k{min(self.sizes)}"

    @property
    def kmax(self):
        return f"k{max(self.sizes)}"


@dataclass(frozen=True)
class Reduce(_Sized):
    """reduce_germ(k, rhos, tail) on acceptance-style instances, sizes cycling."""

    sizes: tuple = (8, 10, 12)
    nominal_cycle_s: float = 5.1
    trace_cycles: int = 2
    setup_samples: int = 3
    name: str = "reduce"
    tag: int = 1

    def instance(self, seed, stream, index):
        k = self.sizes[index % len(self.sizes)]
        rng = Xoshiro256StarStar(derive_seed(seed, self.tag, stream, index))
        rhos, tail = reduction_parts(rng, k)
        return Instance(f"k{k}", (k, rhos, tail))

    def call(self, inst, ctx):
        return harmgerm.reduce_germ(*inst.payload)

    def outcome(self, chain):
        ok = chain.verified and chain.certificate is not None and chain.certificate.ok
        return chain.to_json().encode(), ok


@dataclass(frozen=True)
class Certify(_Sized):
    """check_determinacy(f_k + tail, 2k-3), then reverify_certificate, sizes cycling."""

    sizes: tuple = (8, 9, 10)
    nominal_cycle_s: float = 3.6
    trace_cycles: int = 3
    setup_samples: int = 3
    name: str = "certify"
    tag: int = 2

    def instance(self, seed, stream, index):
        k = self.sizes[index % len(self.sizes)]
        rng = Xoshiro256StarStar(derive_seed(seed, self.tag, stream, index))
        return Instance(f"k{k}", (k, harmonic_pair(k).f + determinacy_tail(rng, k)))

    def call(self, inst, ctx):
        k, germ = inst.payload
        cert = harmgerm.check_determinacy(germ, 2 * k - 3)
        return cert, harmgerm.reverify_certificate(cert)

    def outcome(self, result):
        cert, reverified = result
        record = {
            "level": cert.level,
            "verdict": cert.verdict,
            "products": len(cert.products),
            "reverified": reverified,
        }
        return json.dumps(record, sort_keys=True).encode(), cert.verdict and reverified


# -- the cli mix: each builder maps an rng to (label, argv) -----------------


def _reduce_cmd(k, rng):
    rhos, tail = reduction_parts(rng, k)
    germ = harmonic_pair(k).f + tail
    for rho in rhos.values():
        germ = germ + rho
    return f"reduce-k{k}", ["reduce", format_poly(rescale(germ)), "--k", str(k)]


def _biharm_cmd(rng):
    k = 7
    R = Poly.zero()
    for d in range(k + 1, 2 * k - 3):
        R = R + random_in_span(rng, kernel_basis(d, 2).basis)
    return "biharm-k7", ["biharm", format_poly(R), "--k", str(k)]


def _determinacy_cmd(rng):
    k = 8
    germ = harmonic_pair(k).f + determinacy_tail(rng, k)
    return "determinacy-k8", ["determinacy", format_poly(germ), "--k", str(2 * k - 3)]


def _kernel_cmd(rng):
    return "kernel-k12", ["kernel", "--k", "12", "--s", "4"]


def _split_cmd(rng):
    p = random_homogeneous(rng, 12) or Poly.monomial(12, 0)
    return "split", ["split", format_poly(p)]


def _almansi_cmd(rng):
    u = random_in_span(rng, kernel_basis(10, 3).basis) or harmonic_pair(10).f
    return "almansi", ["almansi", format_poly(u), "--s", "3"]


def _selftest_cmd(rng):
    return "selftest", ["selftest", "--seed", str(rng.randint(0, 99999))]


# Some commands come more than once per cycle: `reduce --k 8` three
# times and `reduce --k 10` twice, so that each run has enough samples
# for the per-size medians of these noisy cold starts; determinacy three
# times and biharm twice, which keeps the pooled median inside their
# cluster of similar latencies instead of between two clusters.
CLI_MIX = (
    partial(_reduce_cmd, 8),
    partial(_reduce_cmd, 10),
    _biharm_cmd,
    _determinacy_cmd,
    _kernel_cmd,
    partial(_reduce_cmd, 8),
    _split_cmd,
    _determinacy_cmd,
    _almansi_cmd,
    _selftest_cmd,
    partial(_reduce_cmd, 8),
    partial(_reduce_cmd, 10),
    _determinacy_cmd,
    _biharm_cmd,
)


@dataclass(frozen=True)
class Cli:
    """One cold `python -m harmgerm.cli` child per operation, the mix in CLI_MIX."""

    mix: tuple = CLI_MIX
    nominal_cycle_s: float = 10.6
    trace_cycles: int = 1
    setup_samples: int = 9  # a sample is only a cold import, so take more
    kmin: str = "reduce-k8"
    kmax: str = "reduce-k10"
    name: str = "cli"
    tag: int = 3
    warmups: int = 0  # every call starts cold, so nothing is warmed up
    in_children: bool = True

    @property
    def cycle(self):
        return len(self.mix)

    def instance(self, seed, stream, index):
        rng = Xoshiro256StarStar(derive_seed(seed, self.tag, stream, index))
        label, argv = self.mix[index % len(self.mix)](rng)
        return Instance(label, tuple(argv))

    def call(self, inst, ctx):
        if ctx.recorder is None:
            argv = [sys.executable, "-m", "harmgerm.cli", *inst.payload]
        else:
            argv = [sys.executable, str(ctx.shim), str(ctx.child_record), *inst.payload]
        return subprocess.run(
            argv, capture_output=True, env=ctx.env, cwd=ctx.root, timeout=CHILD_TIMEOUT_S
        )

    def outcome(self, proc):
        return proc.stdout, proc.returncode == 0


WORKLOADS = {w.name: w for w in (Reduce(), Certify(), Cli())}

