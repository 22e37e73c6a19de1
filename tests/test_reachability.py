"""The package holds only what the pipeline and `verify` run, and what UNREACHED names.

One in-process pass of the CLI under a sys.setprofile hook records every
dsff_lab function that runs: `sample` at N=16, real and complex, `estimate`
on a ray and on one point, `theory` at beta 1 and 2 and with
--exact-gaussian, `compare` with and without --subtract-disconnected and
--svg, then `verify`. The functions and methods of every module but
verify.py that the pass never reaches must be exactly those of UNREACHED,
each with the reason it stays. A name that nothing runs any more fails
here until it is deleted or given a reason; a name given a reason that the
pass now reaches fails until its entry goes.
"""
import inspect
import sys
import types
from pathlib import Path

import dsff_lab
from dsff_lab import cli, quadrature

PACKAGE = dsff_lab.__path__[0]

POOL = "pool path (--workers above 1): A6 and tests/test_spectra.py run it; the pass samples with one worker"
UNREACHED = {
    "kernels.backend": "perfbench/bench.py reports it as the machine block's kernel_backend",
    "ensembles.EnsembleSpec.beta": "README's library example passes spec.beta to dsff_theory",
    "_args._describe": "error path: it words a refused value",
    "spectra.EigensolverError.__init__": "error path: a sample whose eigensolve fails",
    "spectra.EigensolverError.__reduce__": "error path: carries that error out of a worker process",
    "spectra._usable_cpus": POOL,
    "spectra._chunk_plan": POOL,
    "spectra._single_thread_blas_env": POOL,
    "spectra._solve_in_pool": POOL,
}


def _defined():
    """{"module.qualname"} of every function and method in the package outside verify.py."""
    names = set()

    def walk(code, module):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                # a class body runs once at import; lambdas and comprehensions
                # belong to the function that holds them
                if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                    names.add(f"{module}.{const.co_qualname}")
                walk(const, module)

    for path in sorted(Path(PACKAGE).glob("*.py")):
        if path.name != "verify.py":
            walk(compile(path.read_text(), str(path), "exec"), path.stem)
    return names


def _pipeline(tmp_path):
    p = lambda name: str(tmp_path / name)
    grid = ["--theta", "0.3", "--tau-min", "0.5", "--tau-max", "4", "--points", "12"]
    return [
        ["sample", "--n", "16", "--m", "6", "--field", "real", "--seed", "1", "--out", p("real.bin")],
        ["sample", "--n", "16", "--m", "6", "--field", "complex", "--seed", "2", "--out", p("complex.bin")],
        ["estimate", "--spectra", p("complex.bin"), *grid, "--out", p("ray.csv")],
        ["estimate", "--spectra", p("real.bin"), "--tau-min", "1", "--tau-max", "1", "--points", "1",
         "--out", p("point.csv")],
        ["theory", "--n", "16", "--beta", "2", *grid, "--out", p("beta2.csv")],
        ["theory", "--n", "16", "--beta", "1", "--kappa4", "-1", *grid, "--out", p("beta1.csv")],
        ["theory", "--n", "16", "--exact-gaussian", *grid, "--out", p("exact.csv")],
        ["compare", "--estimate", p("ray.csv"), "--theory", p("beta2.csv"), "--out", p("compare.csv")],
        ["compare", "--estimate", p("ray.csv"), "--theory", p("beta2.csv"), "--out", p("connected.csv"),
         "--subtract-disconnected", "--svg", p("connected.svg")],
        ["verify", "--out", p("verify.json")],
    ]


def test_every_unreached_function_is_named_with_its_reason(tmp_path):
    # cached builders that earlier calls in this process filled would not run
    for cached in (cli.build_parser, quadrature._disk_grid, quadrature._quarter_circle_rule):
        cached.cache_clear()
    reached = set()

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(PACKAGE):
            reached.add(f"{code.co_filename[len(PACKAGE) + 1:-3]}.{code.co_qualname}")

    sys.setprofile(hook)
    try:
        codes = [cli.main(argv) for argv in _pipeline(tmp_path)]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(codes)
    assert sorted(_defined() - reached) == sorted(UNREACHED)
