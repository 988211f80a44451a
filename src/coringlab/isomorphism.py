"""Degreewise comparison of the coring tensor complex with the relative
cochain complex of the extension it came from.

The comparison maps send a pure tensor of endomorphisms to their
iterated cup product.  In degrees 0 and 1 the two sides share
coordinates outright, so the maps are identities; from degree 2 on
f_n is one paired product of the cochain complex, f_{n-1}(x) ∪ v for
every basis x of degree n-1 and v of the carrier, on the plain product
power(n-1) x carrier that the coring's power(n) is a quotient of,
descended through the balancing relations; f_2 is the depth-two
certificate's f2.  All degrees are built in one sweep, each from the one
below.  Multiplicativity is checked by the shared ``dga.verify_morphism``:
proved on every basis pair where dim(m)·dim(n) <= ``trials``, else sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebras import Extension
from .amitsur import AmitsurComplex, build_amitsur
from .corings import D2Certificate, build_f2, endo_coring
from .dga import DEFAULT_TRIALS, cohomology_dims, every_pair, verify_morphism
from .hochschild import DEFAULT_DEGREE, CochainComplex, build_complex, grow_complex
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


def build_fn(cert: D2Certificate, ac: AmitsurComplex, cc: CochainComplex, n: int) -> list[Matrix]:
    """Matrices f_0 .. f_n of the comparison maps in quotient coordinates,
    built in one sweep; ``ac`` is the complex of ``cert``'s coring.

    Degrees 0 and 1 share coordinates outright.  Above them the map is
    the iterated cup product of 1-cochains, built one factor at a time:
    the coring's power(k) is power(k-1) ⊗_R carrier, and on that plain
    product f_k(x ⊗ v) = f_{k-1}(x) ∪ f_1(v), descended through the
    balancing relations, from the certificate's f2 on.
    """
    p = cert.extension.p
    if not 0 <= n <= min(ac.max_degree, cc.max_degree):
        raise ValueError(f"degree {n} outside the built range")
    f = [Matrix.identity(p, ac.dim(0)), Matrix.identity(p, ac.dim(1)), cert.f2][:n + 1]
    units = np.eye(ac.dim(1), dtype=np.int64)
    for k in range(3, n + 1):
        images = cc.products(k - 1, 1, *every_pair(f[-1].a, units))
        f.append(Matrix._wrap(p, descend(ac.spaces[k], images)))
    return f


def verify_main_theorem(e: Extension, max_degree: int = DEFAULT_DEGREE,
                        trials: int = DEFAULT_TRIALS, seed: int = 0) -> IsoWitness:
    """Bijectivity, chain squares, and multiplicativity, all exact.

    Raises NoD2CertificateError when the extension has no certificate;
    any failed check on a certified extension is reported in the
    witness, never raised.
    """
    # one complex: the certificate's, grown only once its coring stands
    cc = build_complex(e, 2)
    cert = build_f2(e, cc)
    coring = endo_coring(e, cert)
    ac = build_amitsur(coring, max_degree)
    cc = grow_complex(cc, max_degree)
    rep = Report("main-theorem")

    f = build_fn(cert, ac, cc, max_degree)
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

    hd = cohomology_dims(cc)[:max_degree]
    ad = cohomology_dims(ac)
    rep.add("cohomology dims agree", hd == ad, hochschild=hd, amitsur=ad)
    return IsoWitness(extension=e, max_degree=max_degree, f=f,
                      bijective=bijective, chain_ok=chain_ok,
                      hochschild_dims=hd, amitsur_dims=ad, report=rep)
