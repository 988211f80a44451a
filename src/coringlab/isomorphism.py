"""Degreewise comparison of the coring tensor complex with the relative
cochain complex of the extension it came from.

The comparison maps send a pure tensor of endomorphisms to their
iterated cup product.  In degrees 0 and 1 the two sides share
coordinates outright, so the maps are identities; from degree 2 on
f_n is one paired product of the cochain complex, f_{n-1}(x) ∪ v for
every basis x of degree n-1 and v of the carrier, on the plain product
power(n-1) x carrier that the coring's power(n) is a quotient of,
descended through the balancing relations.  All degrees are built in
one sweep, each from the one below.  Multiplicativity is checked by the
shared ``dga.verify_morphism`` on batches of sampled pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebras import Extension
from .amitsur import AmitsurComplex, build_amitsur
from .corings import build_f2, endo_coring
from .dga import cohomology_dims, every_pair, verify_morphism
from .hochschild import CochainComplex, build_complex
from .linalg import Matrix, descend, rank_of
from .reporting import Report


@dataclass
class IsoWitness:
    """Comparison matrices per degree and the outcome of every check."""

    extension: Extension
    max_degree: int
    f: list
    bijective: list
    chain_ok: list
    hochschild_dims: list
    amitsur_dims: list
    report: Report

    @property
    def ok(self) -> bool:
        return self.report.ok


def build_fn(e: Extension, ac: AmitsurComplex, cc: CochainComplex, n: int) -> list[Matrix]:
    """Matrices f_0 .. f_n of the comparison maps in quotient coordinates,
    built in one sweep.

    Degrees 0 and 1 share coordinates outright.  Above them the map is
    the iterated cup product of 1-cochains, built one factor at a time:
    the coring's power(k) is power(k-1) ⊗_R carrier, and on that plain
    product f_k(x ⊗ v) = f_{k-1}(x) ∪ f_1(v), descended through the
    balancing relations.
    """
    p = e.ambient.p
    if not 0 <= n <= min(ac.max_degree, cc.max_degree):
        raise ValueError(f"degree {n} outside the built range")
    f = [Matrix.identity(p, ac.dim(0)), Matrix.identity(p, ac.dim(1))][:n + 1]
    units = np.eye(ac.dim(1), dtype=np.int64)
    for k in range(2, n + 1):
        images = cc.products(k - 1, 1, *every_pair(f[-1].a, units))
        f.append(Matrix(p, descend(ac.spaces[k], images)))
    return f


def verify_main_theorem(e: Extension, max_degree: int = 3, trials: int = 50,
                        seed: int = 0) -> IsoWitness:
    """Bijectivity, chain squares, and multiplicativity, all exact.

    Raises NoD2CertificateError when the extension has no certificate;
    any failed check on a certified extension is reported in the
    witness, never raised.
    """
    cert = build_f2(e)
    coring = endo_coring(e, cert)
    ac = build_amitsur(coring, max_degree)
    cc = build_complex(e, max_degree)
    rep = Report("main-theorem")

    f = build_fn(e, ac, cc, max_degree)
    bijective = []
    for n, fn in enumerate(f):
        rank = rank_of(fn.a, e.p)
        ok = ac.dim(n) == cc.dim(n) == rank
        bijective.append(ok)
        check = rep.add(f"f{n} bijective", ok, omega_dim=ac.dim(n), cochain_dim=cc.dim(n))
        if not ok:
            check.detail["rank"] = rank

    rep.checks.extend(verify_morphism(f, ac, cc, trials=trials, seed=seed).checks)
    chain_ok = [c.ok for c in rep.checks if c.name.startswith("chain square")]

    hd = cohomology_dims(cc)
    ad = cohomology_dims(ac)
    rep.add("cohomology dims agree", hd == ad, hochschild=hd, amitsur=ad)
    return IsoWitness(extension=e, max_degree=max_degree, f=f,
                      bijective=bijective, chain_ok=chain_ok,
                      hochschild_dims=hd, amitsur_dims=ad, report=rep)
