"""Design rules that the reproduction's evidence rests on, read off the
source with ``re``: one spectral core, which runs numpy's 1-D passes
itself, one plan cache, one product with the plan, one sweep, kept on
the perturbation's rows, one walk over config text, one report writer,
one home for the contraction margin, one home for config-key refusals,
one pass bound for the pair checks, one sample count for nu(A), one rule
for every sum of squares, and reference oracles that share no kernel
with the code they check, in either direction.  Each rule is one row of
RULES; a broken rule reports its message and each offending
``file:line``."""

import re
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Rule:
    """``pattern`` may match a line of the files that the glob ``paths``
    names, relative to the repository root, only in the ``allowed`` files,
    or, when ``count`` is set, exactly ``count`` times over all of them.
    ``planted`` is one violation, a (path, text) file whose last line
    breaks the rule."""

    name: str
    pattern: str
    paths: str
    message: str
    planted: tuple
    allowed: tuple = ()
    count: int | None = None


RULES = [
    Rule(
        name="fft_only_in_the_spectral_core",
        pattern=r"(np|numpy)\.fft",
        paths="src/efos/**/*.py",
        allowed=("src/efos/grid.py",),
        message="numpy.fft is used outside src/efos/grid.py",
        planted=("src/efos/linear.py", "import numpy as np\n\nspectrum = np.fft.rfftn(values)\n"),
    ),
    Rule(
        name="one_transform_path",
        pattern=r"(?<!`)\b(fftn|ifftn|rfftn|irfftn)\b",
        paths="src/efos/**/*.py",
        message="src/efos names one of numpy's n-D transforms; SpectralCore runs numpy's 1-D passes itself, so "
        "the core keeps one transform path (a docstring names them as ``literals``)",
        planted=("src/efos/grid.py", "import numpy as np\n\nvalues = np.fft.irfftn(coeffs, s=shape, axes=axes)\n"),
    ),
    Rule(
        name="plans_only_from_the_cache",
        pattern=r"MultiplierPlan\(",
        paths="src/efos/**/*.py",
        allowed=("src/efos/linear.py",),
        message="MultiplierPlan( is used outside src/efos/linear.py; get plans from multiplier_plan",
        planted=("src/efos/nonlinear.py", "def plan(A, grid):\n    return MultiplierPlan(A, grid)\n"),
    ),
    Rule(
        name="one_consumer_of_the_increment_sweep",
        pattern=r"(?<!def )_increment_sweep\(",
        paths="src/efos/**/*.py",
        count=1,
        message="_increment_sweep( must appear in src/efos only at its def and one call, in sampled_estimates",
        planted=("src/efos/nonlinear.py", "def sweep(F):\n    return list(_increment_sweep(F, None))\n"),
    ),
    Rule(
        name="the_sweep_stays_on_phis_rows",
        pattern=r"scatter\(",
        paths="src/efos/ellipticity.py",
        message="src/efos/ellipticity.py calls scatter(; the sweep takes Phi on its rows and places them "
        "itself where a norm or the gap needs all N components",
        planted=("src/efos/ellipticity.py", "import numpy as np\n\nD = F.scatter((Phi1 - Phi0) / unit)\n"),
    ),
    Rule(
        name="one_product_with_the_plan",
        pattern=r"self\.multipliers\[",
        paths="src/efos/**/*.py",
        count=2,
        message="self.multipliers[ must appear in src/efos exactly twice, in MultiplierPlan.add_products; "
        "multiply by the plan through add_products",
        planted=(
            "src/efos/linear.py",
            "import numpy as np\n\n"
            'row = np.einsum("b...,b...->...", self.multipliers[a], coeffs.imag, out=out.real)\n',
        ),
    ),
    Rule(
        name="one_walk_over_config_text",
        pattern=r"^\s*(import\s+ast\b|from\s+ast\s+import\b)",
        paths="src/efos/**/*.py",
        allowed=("src/efos/exprs.py",),
        message="ast is imported outside src/efos/exprs.py; read expressions through the tree that "
        "compile_expression returns",
        planted=("src/efos/cli.py", "import argparse\nfrom ast import parse\n"),
    ),
    Rule(
        name="only_the_cli_writes_reports",
        pattern=r"write_csv",
        paths="src/efos/**/*.py",
        allowed=("src/efos/cli.py", "src/efos/fieldfile.py"),
        message="write_csv is used outside src/efos/cli.py (the callers) and src/efos/fieldfile.py (the definition)",
        planted=("src/efos/linear.py", "import math\nfrom .fieldfile import check_finite, write_csv\n"),
    ),
    Rule(
        name="the_oracle_shares_no_kernel_with_the_fast_path",
        pattern=r"direction_matrix|linalg\.svd|spectral_core|SpectralCore|MultiplierPlan|cached_nu"
        r"|ellipticity_constant|_sigma_min|_refine_on_sphere|_refine_nu",
        paths="src/efos/oracle.py",
        message="src/efos/oracle.py uses the fast path's direction matrices, SVD, spectral core, multiplier plan "
        "or nu estimate",
        planted=("src/efos/oracle.py", "import numpy as np\n\nsigma = np.linalg.svd(M, compute_uv=False)\n"),
    ),
    Rule(
        name="the_fast_path_shares_no_kernel_with_the_oracle",
        pattern=r"\b(eigvalsh|lstsq)\b",
        paths="src/efos/**/*.py",
        allowed=("src/efos/oracle.py",),
        message="eigvalsh or lstsq is used outside src/efos/oracle.py; the fast path must not borrow the "
        "oracle's Gram eigenvalues or least squares",
        planted=("src/efos/ellipticity.py", "import numpy as np\n\nlam = np.linalg.eigvalsh(gram)[:, 0]\n"),
    ),
    Rule(
        name="one_home_for_the_contraction_margin",
        pattern=r"\b(cached_nu|nearness_constant|sampled_estimates)\b",
        paths="src/efos/nonlinear.py",
        message="src/efos/nonlinear.py reads cached_nu or a nearness sweep; take the margin, its factor and the "
        "choice of nearness from ellipticity.contraction_margin",
        planted=("src/efos/nonlinear.py", "from .ellipticity import nearness_constant\n\nK = near / cached_nu(A)\n"),
    ),
    Rule(
        name="one_home_for_config_refusals",
        pattern=r"is not read",
        paths="src/efos/**/*.py",
        count=1,
        message="'is not read' must appear in src/efos only once, in the refusal of cli._read_as; name a form "
        "in cli._FORMS instead",
        planted=(
            "src/efos/cli.py",
            '            raise ConfigError(f"[{section}] {key} is not read {form}")\n'
            '        raise ConfigError(f"[{section}] {key} is not read with a catalog source")\n',
        ),
    ),
    Rule(
        name="one_pair_bound",
        pattern=r"\b1(\.0*)?\s*\+\s*1e-9\b",
        paths="src/efos/**/*.py",
        count=1,
        message="1.0 + 1e-9 must appear in src/efos only once, as nonlinear.PAIR_BOUND; read that constant",
        planted=("src/efos/cli.py", 'record("comparison", case, ratio, 1.0 + 1e-9)\n'),
    ),
    Rule(
        name="one_sample_count_for_nu",
        pattern=r"(?<!def )ellipticity_constant\((?:[^()]|\([^()]*\))*,",  # a second argument, at one nesting level
        paths="src/efos/**/*.py",
        message="src/efos passes ellipticity_constant a resolution; its default NU_SAMPLES is also cached_nu's, "
        "so that efos analyze reports the nu that the solvers use",
        planted=("src/efos/cli.py", "report = ellipticity_constant(build_tensor(cfg), 2048)\n"),
    ),
    Rule(
        name="one_rule_for_sums_of_squares",
        pattern=r"np\.linalg\.norm\(|\.var\(|\.std\(",
        paths="src/efos/*linear.py",
        message="src/efos/linear.py or src/efos/nonlinear.py squares a field or a mean by hand; take the norm from "
        "efos.grid (norm_l2, norm_vector or SpectralCore.norms), whose one rule keeps each sum of squares in the "
        "float range",
        planted=("src/efos/nonlinear.py", "import numpy as np\n\ndropped = np.linalg.norm(R[core.zero])\n"),
    ),
    Rule(
        name="the_sweep_oracle_shares_no_kernel_with_the_sweep",
        pattern=r"\b(_increment_sweep|_(top_)?(unit_)?row_norms|_top_unit_norms|_extreme_first|_LADDER_CHUNK_ELEMENTS)\b",
        paths="tests/helpers.py",
        message="tests/helpers.py (reference_sweeps) uses the sweep's chunking, norms or batch extremes",
        planted=("tests/helpers.py", "import numpy as np\nfrom efos.ellipticity import _extreme_first\n"),
    ),
]


def tree_files(rule):
    """{path: text} of the files that the rule reads."""
    return {path.relative_to(ROOT).as_posix(): path.read_text() for path in sorted(ROOT.glob(rule.paths))}


def report(rule, files):
    """The rule's message and one ``file:line: text`` per offending line of
    ``files``, {path: text}, or "" when they keep the rule.  A count rule
    that is broken also reports how many lines it found, so that a count of
    0, which names no line, still reports."""
    hits = [
        (path, number, line.strip())
        for path, text in sorted(files.items())
        for number, line in enumerate(text.splitlines(), 1)
        if re.search(rule.pattern, line)
    ]
    if rule.count is None:
        hits = [hit for hit in hits if hit[0] not in rule.allowed]
        if not hits:
            return ""
        tail = []
    elif len(hits) == rule.count:
        return ""
    else:
        tail = [f"(found {len(hits)}, expected {rule.count})"]
    return "\n".join([rule.message, *(f"{path}:{number}: {line}" for path, number, line in hits), *tail])


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
def test_rule_holds_on_the_tree(rule):
    files = tree_files(rule)
    assert files, f"{rule.paths} names no file"
    broken = report(rule, files)
    if broken:
        pytest.fail(broken, pytrace=False)


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
def test_rule_reports_its_planted_violation(rule):
    path, text = rule.planted
    broken = report(rule, {**tree_files(rule), path: text})
    last = text.splitlines()[-1]
    assert broken.startswith(rule.message + "\n")
    assert f"\n{path}:{len(text.splitlines())}: {last.strip()}" in broken


@pytest.mark.parametrize("rule", [rule for rule in RULES if rule.count], ids=lambda rule: rule.name)
def test_count_rule_reports_its_lines_removed(rule):
    """Dropping every line that a count rule counts, as when the one call
    is deleted or renamed away, breaks the rule."""
    files = {
        path: "".join(line for line in text.splitlines(keepends=True) if not re.search(rule.pattern, line))
        for path, text in tree_files(rule).items()
    }
    assert report(rule, files) == f"{rule.message}\n(found 0, expected {rule.count})"
