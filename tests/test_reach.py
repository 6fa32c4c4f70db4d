"""The package holds only what it runs: every `def` under
`src/nvtransformer` is entered by the output battery's calls
(`tests/battery.py`'s `cli_artifacts` and `model_artifacts`: the five CLI
commands, the teacher-forced passes and the decodes) on a tiny config and
by the README's Python API example, except for the kept list below, each
with its reason.  The example also runs on its own, as written.

The traffic runs in a child interpreter whose profile hook is installed
before `import nvtransformer`, with this checkout's `src` first on its path,
so an installed copy of the package cannot stand in.  A code object is
matched to its `def` by file and `co_firstlineno`, which for a decorated
`def` is the line of its first decorator.  The guard is itself checked on
a copy of the package with an unused def added and a kept def renamed.
"""

import ast
import json
import pathlib
import re
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "nvtransformer"

# def -> why the package keeps it though the traffic never enters it; the
# README's Python API section lists the same names (checked below)
TRACER = "bench/spans.py patches or reads it (ROADMAP item 1)"
GENERAL = "the reference the head-space path is tested against at 1e-12"
KEPT = {
    "attention.attention": TRACER + "; the standard model's independent reference",
    "nvib.project": TRACER,
    "nvib.DpPosterior.__post_init__": TRACER,
    "denoising._general_path": GENERAL,
    "denoising._general_path.mix": GENERAL,
    "cli.entry": "the installed console script, which CI's smoke test runs",
}

# Run as `python -c TRAFFIC SRC TESTS EXAMPLE`: the battery's calls on a
# tiny config, then the example; its last line of output is the (file,
# first line) of every code object entered, as JSON.
TRAFFIC = r"""
import json, os, sys, tempfile

sys.path.insert(0, sys.argv[1])
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
import nvtransformer
sys.path.insert(1, sys.argv[2])
import battery

assert os.path.dirname(nvtransformer.__file__) == os.path.join(sys.argv[1], "nvtransformer")
tiny = dict(vocab=12, dim=8, max_len=10, heads=2, layers_enc=1, layers_dec=1, ffn_dim=8)
with tempfile.TemporaryDirectory() as tmp:
    os.chdir(tmp)
    files, base, twin = battery.cli_artifacts(tmp, tiny, 7)
    # a command that wrote no file still ran to the end: no usage or data error
    assert not [out for out in files.values() if str(out).endswith(("exit 2\n", "exit 3\n"))]
    battery.model_artifacts(nvtransformer.load_weights(base),
                            nvtransformer.load_weights(twin).priors)
    exec(sys.argv[3], {})
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""


def readme_example() -> str:
    """The first python block under the README's `## Python API`."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Python API\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def readme_kept() -> set[str]:
    """The names in the lead of each bullet of the README's kept list (the
    text before its first colon)."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"kept\s+list:\n\n((?:(?:- |  ).*\n)+)", text).group(1)
    leads = [bullet.split(":", 1)[0] for bullet in re.split(r"^- ", block, flags=re.M)]
    return {name for lead in leads for name in re.findall(r"`([^`]+)`", lead)}


def package_defs(package: pathlib.Path = PACKAGE) -> dict[tuple[str, int], str]:
    """(file, first line) -> dotted name of every def in the package; a
    nested def is named through its enclosing classes and defs."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[str(path), first] = name
                walk(child, path, name)
            else:
                walk(child, path, prefix)

    for path in sorted(package.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, path.stem)
    return out


def reach(src: pathlib.Path = SRC) -> tuple[list[str], list[str]]:
    """Run the traffic on the package under `src`; return the defs it never
    enters that are not kept, and the kept entries it enters or that name
    no def."""
    r = subprocess.run(
        [sys.executable, "-c", TRAFFIC, str(src), str(ROOT / "tests"), readme_example()],
        capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 0, r.stderr
    trace = json.loads(r.stdout.splitlines()[-1])
    entered = {(str(pathlib.Path(f).resolve()), line) for f, line in trace}
    defs = package_defs(src.resolve() / "nvtransformer")
    never = {name for key, name in defs.items() if key not in entered}
    return sorted(never - KEPT.keys()), sorted(KEPT.keys() - never)


def test_every_def_is_entered_or_kept_with_a_reason():
    unkept, stale = reach()
    assert not unkept, f"never entered and not kept: {unkept}"
    # each kept entry names a def, and one the traffic does not reach
    assert not stale, f"kept but entered, or no such def: {stale}"


def test_readme_lists_the_kept_defs():
    assert readme_kept() == KEPT.keys()


def test_guard_names_an_unused_def_and_a_kept_entry_that_is_gone(tmp_path):
    # a copy of the package with a def nothing calls, and `cli.entry`
    # renamed so the kept list names a def that no longer exists
    shutil.copytree(PACKAGE, tmp_path / "nvtransformer",
                    ignore=shutil.ignore_patterns("__pycache__"))
    numeric = tmp_path / "nvtransformer" / "numeric.py"
    numeric.write_text(numeric.read_text(encoding="utf-8")
                       + "\n\ndef _never():\n    pass\n", encoding="utf-8")
    cli = tmp_path / "nvtransformer" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count("def entry(") == 1
    cli.write_text(text.replace("def entry(", "def entry_renamed("), encoding="utf-8")
    assert reach(tmp_path) == (["cli.entry_renamed", "numeric._never"], ["cli.entry"])


def test_defs_are_named_by_nesting_and_keyed_by_first_decorator(tmp_path):
    (tmp_path / "m.py").write_text(
        "class A:\n"
        "    @staticmethod\n"
        "    @staticmethod\n"
        "    def f():\n"
        "        def g():\n"
        "            pass\n"
        "def h():\n"
        "    pass\n",
        encoding="utf-8",
    )
    path = str(tmp_path / "m.py")
    assert package_defs(tmp_path) == {
        (path, 2): "m.A.f", (path, 5): "m.A.f.g", (path, 7): "m.h",
    }
    # the interpreter keys a decorated def's code by the same line
    code = compile((tmp_path / "m.py").read_text(encoding="utf-8"), path, "exec")
    a = next(c for c in code.co_consts if getattr(c, "co_name", None) == "A")
    f = next(c for c in a.co_consts if getattr(c, "co_name", None) == "f")
    assert f.co_firstlineno == 2


def test_readme_python_api_example_runs_as_written(capsys):
    exec(readme_example(), {})
    assert capsys.readouterr().out.strip()   # the softened twin's decode
