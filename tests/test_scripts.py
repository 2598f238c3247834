"""Smoke tests: each script under scripts/ runs and agrees with the library."""
import hashlib
import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run(script, *args, cwd):
    done = subprocess.run([sys.executable, str(SCRIPTS / script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_every_script_has_a_smoke_test():
    # a script added under scripts/ without a test_<stem> here fails tier-1
    wanted = {f"test_{path.stem}" for path in SCRIPTS.glob("*.py")}
    assert wanted and wanted <= set(globals())


def test_output_digests(tmp_path):
    lines = run("output_digests.py", cwd=tmp_path).splitlines()
    assert "mc exit 0 stderr " + hashlib.sha256(b"").hexdigest() in lines
    assert any(line.startswith("mc-noise exit 3 ") for line in lines)
    assert "kernel-refused exit 2 files 0" in lines
    assert sum(line.endswith("replay identical 3/3") for line in lines) == 6
    assert [line.split()[1] for line in lines if line.startswith("coherence_mc")] == [
        "dx=5", "dx=0.25", "x=(-3,2)"]
    assert [line.rsplit(" ", 1)[0] for line in lines
            if line.startswith("sample_")] == ["sample_field seed=(7,1)",
                                               "sample_phases dx=1 T=16"]
    files = [line.split() for line in lines if "/" in line.split()[0]]
    assert len(files) == 32 and all(len(digest) == 64 for _name, digest in files)
    assert not list(tmp_path.iterdir())   # every output stays in a temporary directory


def test_code_lines(tmp_path):
    lines = run("code_lines.py", cwd=tmp_path).splitlines()
    *modules, total = [line.split() for line in lines]
    package = SCRIPTS.parent / "src" / "confdec"
    assert [name for _count, name in modules] == sorted(p.name for p in package.glob("*.py"))
    assert all(count.isdigit() for count, _name in modules)
    assert total == [str(sum(int(count) for count, _name in modules)), "total"]


def test_mc_stages(tmp_path):
    stdout = run("mc_stages.py", "--n-samples", "100", "--repeats", "1", cwd=tmp_path)
    result = json.loads(stdout.splitlines()[-1])
    assert list(result) == ["mc-gate", "mc-short"]
    for stages in result.values():
        assert set(stages) == {"dx", "t_list", "n_samples", "draws_us", "score_us",
                               "setup_us"}
        assert stages["n_samples"] == 100 and len(stages["t_list"]) == 4
        for by_t in (stages["score_us"], stages["setup_us"]):
            assert list(by_t) == [f"{t:g}" for t in stages["t_list"]]
        figures = [stages["draws_us"], *stages["score_us"].values(),
                   *stages["setup_us"].values()]
        assert all(isinstance(x, float) and x > 0.0 for x in figures)
    assert not list(tmp_path.iterdir())
