"""The job lists of the CLI workloads, each job with its known answer.

A job is one `symred` command line.  `{seed}` in its arguments becomes
the benchmark seed and `{work}` the run's work directory, where set-up
writes the exported `.sr` files.  A job passes when the command exits
with `code` and its standard output contains every string in `expect`.

Every known answer is quoted from a source that does not depend on
running the program: the README, `tests/test_cli.py`,
`tests/test_acceptance.py` (criteria c01-c12),
`tests/regression_manifest.json`, or a derivation by hand for the
benchmark's own workspaces `root_domain.sr` and `readme_plane.sr`.

cli-default holds 16 small commands (under ~0.15 s of work each) and 11
larger ones, so that its median job latency falls among the small ones
instead of in the gap between the two groups.
"""

from __future__ import annotations

from dataclasses import dataclass

ROOT_DOMAIN = "perfbench/root_domain.sr"
README_PLANE = "perfbench/readme_plane.sr"

# --samples for cli-dense: 5x the default plan's 20 points per seed.
DENSE_SAMPLES = 100


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    expect: tuple[str, ...]
    source: str
    code: int = 0

    def command(self, seed: int, work: str, samples: int | None) -> list[str]:
        argv = [a.format(seed=seed, work=work) for a in self.argv]
        if argv[0] != "models":
            argv += ["--seed", str(seed)]
            if samples is not None:
                argv += ["--samples", str(samples)]
        return argv

    def check(self, code: int, out: str) -> str | None:
        """None when the verdict matches, else what went wrong."""
        if code != self.code:
            return "exit %d, expected %d" % (code, self.code)
        missing = [s for s in self.expect if s not in out]
        if missing:
            return "output lacks %r" % missing[0]
        return None


def _j(name, argv, expect, source, code=0):
    return Job(name, tuple(argv.split()), tuple(expect), source, code)


NS, EU, IS, VN, LF = ("builtin:navier_stokes", "builtin:euler",
                      "builtin:isentropic", "builtin:vnls3", "builtin:laplace_fo")

CLASSIFY_ROT3 = _j(
    "classify.ns.rot3", "classify %s --algebra rot3" % NS,
    ["rank Xi1=2, rank Xi2=3, strong transversality VIOLATED"],
    "README; test_cli.test_classify_rot3_text; c01")
CLASSIFY_ROT3_SL1 = _j(
    "classify.ns.rot3.Sl1", "classify %s --algebra rot3 --candidate Sl1" % NS,
    ["rank Xi1=2, rank Xi2=3", "candidate Sl1: weak transversality HOLDS"],
    "README; test_cli.test_classify_with_candidate_weak_line")
CLASSIFY_GAL3 = _j(
    "classify.euler.gal3", "classify %s --algebra gal3" % EU,
    ["rank Xi1=3, rank Xi2=3, strong transversality HOLDS"],
    "README; c09")
CLASSIFY_TR2 = _j(
    "classify.lfo.tr2", "classify %s --algebra tr2" % LF,
    ["strong transversality HOLDS"],
    "test_cli.test_classify_tr2_strong; c08")
DEFECT_IF11 = _j(
    "defect.isen.gal_p3.IF11", "defect %s --algebra gal_p3 --candidate IF11" % IS,
    ["defect delta=1 (m0=4, orbit rank s=4): PartiallyInvariant"],
    "README; c07")
DEFECT_SLE = _j(
    "defect.lfo.tr2.SLE", "defect %s --algebra tr2 --candidate SLE" % LF,
    ["defect delta=1 (m0=2, orbit rank s=2): PartiallyInvariant"],
    "README; test_cli.test_defect_text; c08")
DEFECT_VNLS = _j(
    "defect.vnls3.subSE.printed", "defect %s --algebra subSE --candidate printed" % VN,
    ["defect delta=1 (m0=3,"],
    "regression_manifest vnls3_printed_subSE_defect=1, _m0=3; c06")
DEFECT_E1E2 = _j(
    "defect.euler.gal3.E1E2", "defect %s --algebra gal3 --candidate E1E2" % EU,
    ["defect delta=2 "],
    "c09")
DEFECT_FP = _j(
    "defect.ns.rot3.fp", "defect %s --algebra rot3 --candidate fp" % NS,
    ["defect delta=0 ", ": Invariant"],
    "c02 (delta 0 is Invariant by the definition in analysis.defect)")
VERIFY_SOL = _j(
    "verify.ns.sol", "verify %s --candidate sol" % NS,
    ["PASS at tol 1.0e-08) for sol on navier_stokes"],
    "README; test_cli.test_verify_pass_and_flag; c02")
VERIFY_VNLS = _j(
    "verify.vnls3.printed", "verify %s --candidate printed" % VN,
    ["PASS at tol 1.0e-08) for printed on vnls3"],
    "c06; README (starred candidates verify below 1e-8)")
VERIFY_SE_CORRECTED = _j(
    "verify.euler.SE_corrected", "verify %s --candidate SE_corrected" % EU,
    ["PASS at tol 1.0e-08) for SE_corrected on euler"],
    "README (the corrected form certifies cleanly)")
VERIFY_SE_PRINTED = _j(
    "verify.euler.SE_printed", "verify %s --candidate SE_printed" % EU,
    ["FAIL at tol 1.0e-08) for SE_printed on euler"],
    "README; test_cli.test_verify_pass_and_flag; c09", code=2)
VERIFY_K_MINUS1 = _j(
    "verify.isen.example3_k_minus1", "verify %s --candidate example3_k_minus1" % IS,
    ["PASS at tol 1.0e-08) for example3_k_minus1 on isentropic"],
    "README (starred candidates verify below 1e-8); c05")
VERIFY_EXAMPLE8 = _j(
    "verify.euler.example8_euler", "verify %s --candidate example8_euler" % EU,
    ["PASS at tol 1.0e-08) for example8_euler on euler"],
    "README (starred candidates verify below 1e-8)")
MINORS_SL1 = _j(
    "minors.ns.rot3.Sl1", "minors %s --algebra rot3 --candidate Sl1" % NS,
    ["-> weak transversality HOLDS"],
    "test_cli.test_minors_on_candidate; c02")
KERNEL_IF11 = _j(
    "kernel.isen.full12.IF11", "kernel %s --algebra full12 --candidate IF11" % IS,
    ["pointwise kernel dimension: 8", "constant kernel dimension: 1",
     "matches named combination: K3 + t0*P3"],
    "README; test_cli.test_kernel_reports_match; c07")
KERNEL_FULL13 = _j(
    "kernel.euler.full13.SE_corrected",
    "kernel %s --algebra full13 --candidate SE_corrected" % EU,
    ["pointwise kernel dimension: 9", "constant kernel dimension: 0"],
    "regression_manifest euler_SE_corrected_full13_*_kernel_dim = 9, 0")
SYMCHECK_PU = _j(
    "symcheck.lfo.PU.SLE", "symcheck %s --field PU --candidate SLE" % LF,
    ["pr PU annihilates laplace_fo on solution SLE: yes"],
    "test_cli.test_symcheck_yes_and_donor_precondition")
MODELS = _j(
    "models", "models",
    ["navier_stokes:", "euler:", "isentropic:", "vnls3:", "laplace_fo:", "sol*"],
    "test_cli.test_models_listing")
DEFECT_CONST = _j(
    "defect.lfo.tr2.const", "defect %s --algebra tr2 --candidate const" % LF,
    ["defect delta=0 (m0=2, orbit rank s=2): Invariant"],
    "c08 (delta 0); m0 and s as for SLE on tr2 in the README")
VERIFY_SLE = _j(
    "verify.lfo.SLE", "verify %s --candidate SLE" % LF,
    ["PASS at tol 1.0e-08) for SLE on laplace_fo"],
    "README (starred candidates verify below 1e-8)")
VERIFY_CONST = _j(
    "verify.lfo.const", "verify %s --candidate const" % LF,
    ["PASS at tol 1.0e-08) for const on laplace_fo"],
    "README (starred candidates verify below 1e-8)")
# Also run during set-up, to write the euler.sr that file jobs read.
EXPORT_EULER = _j(
    "models.export.euler", "models --export euler",
    ["system euler {", "algebra gal3 {", "candidate SE_corrected {"],
    "README (symred models --export euler > euler.sr)")
FILE_CLASSIFY = _j(
    "file.classify.euler.gal3", "classify {work}/euler.sr --algebra gal3",
    ["rank Xi1=3, rank Xi2=3, strong transversality HOLDS"],
    "README (models --export euler > euler.sr; classify euler.sr);"
    " test_cli.test_models_export_reparses")
FILE_VERIFY = _j(
    "file.verify.euler.SE_corrected", "verify {work}/euler.sr --candidate SE_corrected",
    ["PASS at tol 1.0e-08) for SE_corrected on euler"],
    "README (the corrected form certifies cleanly; export keeps candidates)")
FILE_ROOT = _j(
    "file.verify.root_domain", "verify %s --candidate root" % ROOT_DOMAIN,
    ["PASS at tol 1.0e-08) for root on half"],
    "derived by hand in root_domain.sr")
FILE_SADDLE = _j(
    "file.verify.readme_plane", "verify %s --candidate saddle" % README_PLANE,
    ["PASS at tol 1.0e-08) for saddle on laplace"],
    "derived by hand in readme_plane.sr")
FILE_ROT = _j(
    "file.symcheck.readme_plane", "symcheck %s --field rot --candidate saddle" % README_PLANE,
    ["pr rot annihilates laplace on solution saddle: yes"],
    "derived by hand in readme_plane.sr;"
    " test_cli.test_file_workspace_verify_and_symcheck")

CLI_DEFAULT = (
    CLASSIFY_ROT3, CLASSIFY_ROT3_SL1, CLASSIFY_GAL3, CLASSIFY_TR2,
    DEFECT_IF11, DEFECT_SLE, DEFECT_VNLS, DEFECT_E1E2, DEFECT_FP, DEFECT_CONST,
    VERIFY_SOL, VERIFY_VNLS, VERIFY_SE_CORRECTED, VERIFY_SE_PRINTED,
    VERIFY_SLE, VERIFY_CONST,
    MINORS_SL1, KERNEL_IF11, KERNEL_FULL13, SYMCHECK_PU, MODELS, EXPORT_EULER,
    FILE_CLASSIFY, FILE_VERIFY, FILE_ROOT, FILE_SADDLE, FILE_ROT,
)

CLI_DENSE = (
    CLASSIFY_ROT3_SL1, DEFECT_E1E2, VERIFY_SOL, VERIFY_SE_CORRECTED,
    VERIFY_K_MINUS1, VERIFY_EXAMPLE8, VERIFY_VNLS, MINORS_SL1, KERNEL_IF11,
    SYMCHECK_PU, FILE_ROOT,
)

# Run twice during set-up; the two --json files must be byte-identical
# (README: "With a fixed --seed the JSON report is byte-identical").
DETERMINISM = _j(
    "determinism", "defect %s --algebra tr2 --candidate SLE" % LF,
    ["defect delta=1"], "README; c12")
