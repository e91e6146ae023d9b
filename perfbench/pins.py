"""Pinned answers for every benchmark operation, written out as literals.

These were computed once, when the benchmark was written, and each was
cross-checked against a route independent of the one the benchmark times:

* t=0 series: equal to ``closed_form_t0(n, p)`` on every cell, and the
  dumped kernel dimensions agree with the Gram oracle at low degree.
* t=1 dims: p=2, n=5 equals ``closed_form_t1_p2(5)`` including the
  checkpoints L[2]=10, L[4]=29, L[5]=32, L[10]=1 pinned in ``tests/``;
  p=2, n=7 agrees with ``closed_form_t1_p2(7)`` through d=4; every p=3, n=4
  kernel through d=10 equals the Gram oracle's canonical rows.
* Gram-oracle digests: the oracle's canonical rows equal the recursive
  engine's ``GradedKernel.compute_degree`` rows at each (cell, degree).
* Stability verdicts: every per-n answer up to n=9 agrees with the
  ``method="direct"`` membership tree, and each witness pairs to a nonzero
  value under ``contravariant_pairing``.

Nothing here is recomputed by the code under test; the benchmark compares
the engine's outputs to these values and counts every mismatch as a failed
operation.
"""

# (p, n, max_degree) -> (first zero degree or None, {d: (dim M, dim ker, dim L)}).
# A None max_degree runs to the first zero degree; only degrees up to it are
# pinned, so the extra verification degrees after it may change freely.
T1_GENERIC = {
    (2, 5, None): (
        11,
        {
            0: (1, 0, 1),
            1: (4, 0, 4),
            2: (10, 0, 10),
            3: (20, 0, 20),
            4: (35, 6, 29),
            5: (56, 24, 32),
            6: (84, 55, 29),
            7: (120, 100, 20),
            8: (165, 155, 10),
            9: (220, 216, 4),
            10: (286, 285, 1),
            11: (364, 364, 0),
        },
    ),
    (2, 7, 4): (
        None,
        {
            0: (1, 0, 1),
            1: (6, 0, 6),
            2: (21, 0, 21),
            3: (56, 0, 56),
            4: (126, 15, 111),
        },
    ),
    (3, 4, 10): (
        None,
        {
            0: (1, 0, 1),
            1: (3, 0, 3),
            2: (6, 0, 6),
            3: (10, 0, 10),
            4: (15, 0, 15),
            5: (21, 0, 21),
            6: (28, 2, 26),
            7: (36, 6, 30),
            8: (45, 12, 33),
            9: (55, 21, 34),
            10: (66, 33, 33),
        },
    ),
}

# (p, n) at t=0, c=1 -> {d: (dim ker, sha256 of the canonical kernel rows)}.
# The digest is taken over [pivots, [[[column, value], ...] per row]] as
# compact JSON; see ``workloads.kernel_digest``.
GRAM_ORACLE = {
    (2, 9): {
        1: (0, "643d5437104296e21d906ecb15b2c96ad278f20cfc4af53b12bb6069bd853726"),
        2: (28, "f260a0b632e5e66fba14c799f64dcb397453c00c8c5238453f642d0cb9982a5a"),
        3: (119, "65bfc021ca56baba598a45babbd9b47f8cfd2110d0d15ddac55bd9bfcd9a834a"),
        4: (330, "8ec6dfd70a6e88bc6dd38c5984cfda53b41311451842b2fe92287726ed6815be"),
    },
    (3, 7): {
        1: (0, "643d5437104296e21d906ecb15b2c96ad278f20cfc4af53b12bb6069bd853726"),
        2: (14, "599363bad677da8255904694b6d6252c6b584c72f599ba8ccc6c6080a269b54d"),
        3: (50, "15bc7e5536cbefb323ffee354da2e0e05f77589b7576274570a0b7c588667236"),
        4: (125, "03930b27280e20b6c50abd41be07bdeb0cc66cbc54b4998305ac255618386f07"),
    },
    (5, 6): {
        1: (0, "643d5437104296e21d906ecb15b2c96ad278f20cfc4af53b12bb6069bd853726"),
        2: (9, "6158f2c79607a95f4b08cdb778eea359ae42801260d87d49323077fe2937c8fb"),
        3: (29, "6e72df0c77e94f17df632dc981ee6fa7dfbf3dc78f59d79a4805ad8336896f0d"),
        4: (64, "ba42272bbde655fb3d60e648abcba13def9494c932ab29b436b929aab11f0a7b"),
        5: (121, "8fb8b63cf63fbd1e08992b092fa0be7208e0912b2626c3922f57dad7e7b1e1be"),
    },
}

# Family text -> the verdict's ``to_json()``, witness included.
STABILITY = {
    "x1^6": {
        "polynomial": "x1^6",
        "bound": 11,
        "proof_text_bound": 10,
        "per_n": [
            {"n": 3, "in_kernel": True},
            {"n": 5, "in_kernel": True},
            {"n": 7, "in_kernel": True},
            {"n": 9, "in_kernel": True},
            {"n": 11, "in_kernel": True},
        ],
        "stable": True,
        "certifying": True,
    },
    "x1^5*x2^2*x3^2": {
        "polynomial": "x1^5*x2^2*x3^2",
        "bound": 15,
        "proof_text_bound": 14,
        "per_n": [
            {"n": 5, "in_kernel": True},
            {"n": 7, "in_kernel": True},
            {"n": 9, "in_kernel": True},
            {"n": 11, "in_kernel": True},
            {"n": 13, "in_kernel": True},
            {"n": 15, "in_kernel": True},
        ],
        "stable": True,
        "certifying": True,
    },
    "x1^4*x2^4": {
        "polynomial": "x1^4*x2^4",
        "bound": 12,
        "proof_text_bound": 11,
        "per_n": [
            {"n": 3, "in_kernel": True},
            {"n": 5, "in_kernel": True},
            {"n": 7, "in_kernel": True},
            {"n": 9, "in_kernel": True},
            {"n": 11, "in_kernel": True},
        ],
        "stable": True,
        "certifying": True,
    },
    "x1^3*x2^3*x3^3": {
        "polynomial": "x1^3*x2^3*x3^3",
        "bound": 13,
        "proof_text_bound": 12,
        "per_n": [
            {"n": 5, "in_kernel": True},
            {"n": 7, "in_kernel": True},
            {"n": 9, "in_kernel": True},
            {"n": 11, "in_kernel": True},
            {"n": 13, "in_kernel": True},
        ],
        "stable": True,
        "certifying": True,
    },
    "x1^2*x2^2*x3^2*x4^2": {
        "polynomial": "x1^2*x2^2*x3^2*x4^2",
        "bound": 12,
        "proof_text_bound": 11,
        "per_n": [
            {"n": 5, "in_kernel": True},
            {"n": 7, "in_kernel": True},
            {"n": 9, "in_kernel": True},
            {"n": 11, "in_kernel": True},
        ],
        "stable": True,
        "certifying": True,
    },
    # rejected at the first odd n; the witness pairs to c^4 + c^3
    "x1^5*x2": {
        "polynomial": "x1^5*x2",
        "bound": 11,
        "proof_text_bound": 10,
        "per_n": [{"n": 3, "in_kernel": False, "witness": [1, 5]}],
        "stable": False,
        "certifying": True,
    },
}

# (p, n) at t=0 through ``cherednik hilbert`` -> (exit code, series coefficients,
# sha256 of the --dump-kernel JSON restricted to degrees up to the first zero
# of dim L; see ``workloads.dump_digest``).
T0_GRID = {
    (2, 9): (0, (1, 8, 8, 1), "44ca99ea37a67d38462c01ebc5f161ca75733d65ee4ab8f0d4987815a863fe1b"),
    (3, 7): (0, (1, 6, 7, 6, 1), "b91b868e7da799dadebacc2d74e043eae70ce3d6a610db828c010256375b7944"),
    (5, 6): (0, (1, 5, 6, 6, 6, 5, 1), "d42800692b821ea97663b80f06890bbc833fb362ec53ae046e903c4306bedac9"),
    (2, 11): (0, (1, 10, 10, 1), "b4d57d8d59ee71066c15ee8262c152df85166ecffc829cdc415cd21e813a9d5c"),
    (3, 10): (0, (1, 9, 10, 9, 1), "2c5b4b615ea7b921d0f6518dda1bf224fb95f6861ca145072ae94c000b223422"),
    (2, 13): (0, (1, 12, 12, 1), "03d55fd034f2e2cc8d8409f194c8b16751a2f6a63cb87768f59406ca7a2bfaef"),
}

# The canary that opens every pass: one tiny cell per layer, so that every
# traced layer records at least one span on every workload.
CANARY_HILBERT = ((2, 3), (0, (1, 2, 2, 1), "e756fa5846014a9cbdca04d2d00a9223f428bdc6a611a2810bf634df8a009c9e"))
CANARY_ORACLE = (
    (2, 3, 2),
    (1, "1808a08eabbf850895eaf240c15d5d2a889cf154a2fc045aacfaed9ed8b61c4c"),
)
CANARY_STABILITY = (
    "x1^2",
    {
        "polynomial": "x1^2",
        "bound": 3,
        "proof_text_bound": 2,
        "per_n": [{"n": 3, "in_kernel": False, "witness": [1, 1]}],
        "stable": False,
        "certifying": True,
    },
)
