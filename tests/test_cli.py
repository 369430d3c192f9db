import json
import pathlib

import pytest

from heytord.cli import execute
from heytord.order import poset_file_text, zoo


@pytest.fixture()
def chain2_file(tmp_path):
    p = tmp_path / "chain2.poset"
    p.write_text(poset_file_text(zoo()["chain2"]))
    return str(p)


def test_algebra_validate_and_show(chain2_file, capsys):
    assert execute(["algebra", "validate", "--poset", chain2_file]) == 0
    out = capsys.readouterr().out
    assert "all laws pass" in out
    assert execute(["algebra", "show", "--poset", chain2_file]) == 0
    out = capsys.readouterr().out
    assert "{b}" in out and "3 elements" in out


def test_algebra_validate_interval_samples(capsys):
    assert execute(["algebra", "validate", "--interval"]) == 0
    assert "all laws pass" in capsys.readouterr().out


def test_eval_membership_example(chain2_file, capsys):
    rc = execute(["eval", "--poset", chain2_file, "-c", "u := {#0 @ {b}}", "u in #2"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "{b}"


def test_eval_defs_file(chain2_file, tmp_path, capsys):
    defs = tmp_path / "defs.txt"
    defs.write_text("u := {#0 @ {b}}\nv := succ(u)\n")
    # defs files hold literals only; function calls are rejected
    rc = execute(["eval", "--poset", chain2_file, "--defs", str(defs), "tt"])
    assert rc == 2


def test_lemma_run_l1(chain2_file, tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = execute(["lemma", "run", "--poset", chain2_file, "--lemma", "L1", "--rank", "2",
                  "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["lemma"] == "L1" and rep["failures"] == []
    assert "PASS" in capsys.readouterr().out


def test_lemma_run_multiple_and_jobs(chain2_file, tmp_path):
    out = tmp_path / "r.json"
    rc = execute(["lemma", "run", "--poset", chain2_file, "--lemma", "L1,L10",
                  "--jobs", "2", "--out", str(out)])
    assert rc == 0
    reps = json.loads(out.read_text())
    assert [r["lemma"] for r in reps] == ["L1", "L10"]


def test_witness_check(capsys, tmp_path):
    out = tmp_path / "w.json"
    rc = execute(["witness", "check", "--interval", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "perp(A,B) = 1" in printed
    data = json.loads(out.read_text())
    assert data["perp"] == "1" and data["trichotomy"] == "0"
    assert set(data["values"].values()) == {"0"}


def test_antichain_build(tmp_path, capsys):
    out = tmp_path / "a.json"
    rc = execute(["antichain", "build", "--interval", "--x", "{0,{0}}",
                  "--gamma", "3", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["certified"] is True
    assert data["domain"] == ["0", "1", "2"] and data["minimal_gamma"] == 3
    assert all(row["value"] == "1" for row in data["theta"])


def test_antichain_gamma_too_small(capsys):
    rc = execute(["antichain", "build", "--interval", "--x", "{0,{0}}", "--gamma", "1"])
    assert rc == 2
    assert "--gamma 3" in capsys.readouterr().err


def test_usage_errors(chain2_file, capsys):
    assert execute(["eval", "u in"]) == 2  # no algebra source
    assert execute(["eval", "--poset", chain2_file, "u in"]) == 2  # parse error
    assert execute(["eval", "--poset", chain2_file, "--interval", "tt"]) == 2
    assert execute(["lemma", "run", "--poset", chain2_file, "--lemma", "L99"]) == 2
    assert execute(["algebra", "validate", "--poset", "/nonexistent.poset"]) == 2
    assert execute(["bogus"]) == 2


def test_console_script_entry_point(chain2_file):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "heytord", "eval", "--poset", chain2_file, "#0 in #1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "{a,b}"
    proc = subprocess.run(
        [sys.executable, "-m", "heytord", "eval", "--poset", chain2_file, "#0 in"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2 and "error:" in proc.stderr


def test_deep_numerals_stay_polynomial(tmp_path):
    """Comparing two equal but distinct copies of the numeral n takes about
    2**n steps.  With one shared object per numeral, and membership starting
    from the element's own entry, this runs in about a second.  The timeout
    makes a regression fail instead of hang."""
    import subprocess
    import sys

    chain1 = tmp_path / "chain1.poset"
    chain1.write_text(poset_file_text(zoo()["chain1"]))
    proc = subprocess.run(
        [sys.executable, "-m", "heytord", "eval", "--poset", str(chain1), "#1000 in #1001"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "{a}"


def test_deterministic_json(chain2_file, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc = execute(["lemma", "run", "--poset", chain2_file, "--lemma", "L2",
                      "--seed", "0", "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        data["elapsed_ms"] = 0
        outs.append(json.dumps(data))
    assert outs[0] == outs[1]


def test_parametric_label_needs_interval_algebra(chain2_file, capsys):
    for label in ("!q", "(0,q)"):
        fam = f"u := {{fam q in QQ : {{#0 @ {label}}} @ {{a,b}}}}"
        assert execute(["eval", "--poset", chain2_file, "-c", fam, "#0 in u"]) == 2
        assert "need the interval algebra" in capsys.readouterr().err
    fam = "u := {fam q in QQ : {#0 @ !q} @ 1}"
    assert execute(["eval", "--interval", "-c", fam, "#0 in u"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    for label in ("(1,q,2)", "(q,1)|!+inf", "(q,1)|(3,2)"):
        fam = f"u := {{fam q in QQ : {{#0 @ {label}}} @ 1}}"
        assert execute(["eval", "--interval", "-c", fam, "#0 in u"]) == 2
        assert "error:" in capsys.readouterr().err


def test_family_element_with_families_is_a_parse_error(capsys):
    """A family element that carries families of its own would lose them as a
    one-parameter shape, so the literal is refused; numerals stay legal."""
    assert execute(["eval", "--interval", "-c", "u := {fam q in QQ : A @ 1}", "A in u"]) == 2
    assert "cannot nest inside a family template" in capsys.readouterr().err
    assert execute(["eval", "--interval", "-c", "u := {fam q in QQ : #2 @ 1}", "#2 in u"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_deep_input_is_a_typed_error(chain2_file, capsys):
    deep_hf = "{" * 1200 + "}" * 1200
    assert execute(["antichain", "build", "--interval", "--x", deep_hf]) == 2
    assert "nests too deeply" in capsys.readouterr().err
    deep_hset = "u := " + "{" * 600 + "}" + " @ {a,b}}" * 599
    assert execute(["eval", "--poset", chain2_file, "-c", deep_hset, "#0 in u"]) == 2
    assert "nests too deeply" in capsys.readouterr().err


def test_huge_numeral_literal_is_a_typed_error(chain2_file, capsys):
    """Numeral n costs memory quadratic in n, so literals above 2048 are refused;
    a digit that is not a decimal digit is no numeral."""
    assert execute(["eval", "--poset", chain2_file, "#100000 in #1"]) == 2
    assert "largest literal numeral" in capsys.readouterr().err
    assert execute(["antichain", "build", "--interval", "--x", "{100000}"]) == 2
    assert "largest literal numeral" in capsys.readouterr().err
    assert execute(["eval", "--poset", chain2_file, "#\u00b2 in #1"]) == 2
    assert "expected digits after #" in capsys.readouterr().err
