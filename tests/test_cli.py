"""Command-line interface: CSV contract, exit codes, reproducibility."""

import hashlib

import pytest

from ncdetect import acceptance, analytic, cli, sim
from ncdetect.algebra import binary_field


def run(args):
    return cli.main(args)


def test_csv_header_and_sorting(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = run(["sweep", "--p", "0,0.5,0.25", "--trials", "0",
              "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("scheme,p,n,G,h_p,h_g,analytic_ratio,"
                        "empirical_ratio,stderr,trials,seed")
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 9
    keys = [(r[0], float(r[1])) for r in rows]
    assert keys == sorted(keys)


def test_analytic_only_rows_have_empty_empirical_columns(tmp_path):
    out = tmp_path / "a.csv"
    run(["sweep", "--p", "0.1", "--schemes", "packet", "--trials", "0",
         "--out", str(out)])
    row = out.read_text().splitlines()[1].split(",")
    assert row[0] == "packet"
    assert float(row[6]) == pytest.approx(
        analytic.overhead_packet(0.1, 1000, 60)
    )
    assert row[7] == "" and row[8] == ""
    assert row[9] == "0"


# sha256 of each command's CSV; a change of the node run's draws or of its
# scoring moves them.
CSV_DIGESTS = {
    "sweep --p 0:0.2:0.05 --trials 2000 --seed 99":
        "cbddbf7b981fcdac1b6d96ddbd7d539655193f6fd7077dd51684a8ffaaa26f45",
    "figure3 --p 0:1:0.25 --G-list 1,5,50 --trials 2000 --seed 99":
        "efde465265c9604b9965f43b70b88a86c19049dd1d6dc2ded31b38ffd859a538",
}


@pytest.mark.parametrize("command", CSV_DIGESTS, ids=lambda c: c.split()[0])
def test_csv_byte_identical_across_runs(tmp_path, command):
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        run(command.split() + ["--out", str(out)])
        assert hashlib.sha256(out.read_bytes()).hexdigest() == CSV_DIGESTS[command]


def test_simulated_rows_within_statistical_tolerance(tmp_path):
    out = tmp_path / "sim.csv"
    run(["sweep", "--p", "0:1:0.25", "--trials", "5000", "--seed", "3",
         "--out", str(out)])
    for line in out.read_text().splitlines()[1:]:
        row = line.split(",")
        ana, emp, stderr = float(row[6]), float(row[7]), float(row[8])
        assert 0.0 <= ana <= 1.0
        assert abs(emp - ana) <= max(3 * stderr, 0.005)


def test_figure3_covers_generation_sizes(tmp_path):
    out = tmp_path / "f3.csv"
    rc = run(["figure3", "--p", "0:1:0.1", "--out", str(out)])
    assert rc == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    assert {r[0] for r in rows} == {"generation"}
    assert {int(r[3]) for r in rows} == {1, 5, 10, 20, 50}
    assert len(rows) == 5 * 11
    # h_g scales with G at 2%
    for r in rows:
        assert float(r[5]) == pytest.approx(0.02 * 1000 * int(r[3]))


def test_figure45_includes_zoomed_grid(tmp_path):
    out = tmp_path / "f45.csv"
    rc = run(["figure45", "--out", str(out)])
    assert rc == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    schemes = {r[0] for r in rows}
    assert schemes == set(analytic.SCHEMES)
    ps = sorted({float(r[1]) for r in rows})
    assert 0.001 in ps and 0.013 in ps  # zoomed low-p points
    assert 0.97 in ps  # full-range points
    packet_rows = {float(r[1]): float(r[6]) for r in rows if r[0] == "packet"}
    ec_rows = {float(r[1]): float(r[6]) for r in rows if r[0] == "error-correction"}
    assert packet_rows[0.0] == pytest.approx(0.06)
    assert packet_rows[0.03] == pytest.approx(ec_rows[0.03])  # crossover
    assert packet_rows[0.1] == 0.0


def test_validate_single_criterion(capsys):
    rc = run(["validate", "--criterion", "crossover"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS  crossover" in out
    assert "1/1 criteria passed" in out


def test_validate_fails_on_tampered_formula(capsys, monkeypatch):
    monkeypatch.setattr(analytic, "crossover_ec_vs_packet",
                        lambda n, h_p: h_p / n)
    rc = run(["validate", "--criterion", "crossover"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL  crossover" in out


def test_validate_rejects_unknown_criterion(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["validate", "--criterion", "nonsense"])
    assert exc.value.code == 2


def test_accounting_default_output(capsys):
    rc = run(["accounting"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "6.0% of n=1000" in out
    assert "2.0% of n*G" in out
    assert "0.94" in out and "0.98" in out
    assert "never added" in out  # key cost stays out of the packet overhead


def test_accounting_one_percent_hash(capsys):
    rc = run(["accounting", "--k", "100", "--logq", "8", "--n", "1696",
              "--G", "10"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "k=100, log q=8" in out
    assert "0.99% symbol overhead" in out  # 2/202 of the data symbols


def test_accounting_rejects_bad_domain(capsys):
    rc = run(["accounting", "--G", "0"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_rejects_unknown_scheme(capsys):
    rc = run(["sweep", "--schemes", "parity", "--p", "0.1"])
    assert rc == 2
    assert "unknown scheme" in capsys.readouterr().err


def test_sweep_rejects_bad_grid(capsys):
    rc = run(["sweep", "--p", "0.5:0.1:0.1"])
    assert rc == 2


def test_unwritable_output_path(capsys, tmp_path):
    rc = run(["sweep", "--p", "0.1", "--trials", "0",
              "--out", str(tmp_path / "no" / "dir" / "x.csv")])
    assert rc == 2


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_fig2_summary_output(capsys):
    rc = run(["fig2", "--G", "8", "--p", "0.3", "--trials", "25",
              "--seed", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "node B" in out and "node F" in out
    assert "sink decodable" in out


def test_fig2_edge_override(capsys):
    rc = run(["fig2", "--G", "8", "--p", "0.0", "--edge-p", "D-F=1.0",
              "--trials", "10", "--seed", "6"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "flag rate 1.000" in out  # F flags every trial


def test_missrate_subcommand(capsys):
    rc = run(["missrate", "--G", "6", "--k", "12", "--s", "2",
              "--logq", "7", "--trials", "60", "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "miss bound ((k+1)/q)^s = 0.01031" in out  # (13/128)^2
    assert "60 polluted generations" in out
    assert "\n0 singular mixings redrawn\n" in out
    # Over GF(2^3) a 6 x 6 mixing is singular often enough to be redrawn.
    args = dict(G=6, k_data=12, hash_k=12, s=2, trials=60, seed=7)
    redraws = sim.estimate_hash_miss_rate(binary_field(3), **args).redraws
    assert redraws > 0
    run(["missrate", "--G", "6", "--k", "12", "--s", "2",
         "--logq", "3", "--trials", "60", "--seed", "7"])
    assert f"\n{redraws} singular mixings redrawn\n" in capsys.readouterr().out


def test_missrate_rejects_s_above_g(capsys):
    rc = run(["missrate", "--G", "4", "--s", "5"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_missrate_rejects_zero_trials(capsys):
    rc = run(["missrate", "--trials", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "trials" in err


@pytest.mark.parametrize("args, word", [
    (["fig2", "--trials", "0"], "trials"),
    (["accounting", "--k", "0"], "hash_k"),
    (["accounting", "--bits-p", "0"], "bits_p"),
    (["accounting", "--bits-p", "-5"], "bits_p"),
    (["accounting", "--bits-q", "0"], "bits_q"),
    (["accounting", "--bits-p", "20", "--bits-q", "10"], "bits_q must exceed bits_p"),
    (["accounting", "--bits-p", "20", "--bits-q", "20"], "bits_q must exceed bits_p"),
    (["accounting", "--bits-p", "4", "--bits-q", "16"], "bits_p must be >= 8"),
])
def test_bad_counts_exit_2_without_traceback(capsys, args, word):
    rc = run(args)
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and word in err


def _exit_code(args):
    try:
        return run(args)
    except SystemExit as exc:  # argparse's own usage errors
        return exc.code


@pytest.mark.parametrize("args, word", [
    (["sweep", "--p", ""], "--p lists no values"),
    (["sweep", "--p", " , ,"], "--p lists no values"),
    (["sweep", "--schemes", "", "--p", "0.1"], "--schemes lists no values"),
    (["sweep", "--schemes", ",", "--p", "0.1"], "--schemes lists no values"),
    (["sweep", "--p", "0:1"], "lo:hi:step"),
    (["sweep", "--p", "abc"], "could not convert"),
    (["sweep", "--p", "2", "--trials", "0"], "outside [0, 1]"),
    (["sweep", "--p", "0.1", "--trials", "-1"], "trials"),
    (["sweep", "--p", "0.1", "--n", "0"], "n must be positive"),
    (["figure3", "--G-list", ""], "--G-list lists no values"),
    (["figure3", "--G-list", "5", "--p", ""], "--p lists no values"),
    (["figure3", "--G-list", "0", "--p", "0.1"], "G must be >= 1"),
    (["figure3", "--G-list", "x"], "invalid literal"),
    (["figure45", "--trials", "-3"], "trials"),
    (["figure45", "--G", "0"], "G must be >= 1"),
    (["figure45", "--hg-frac", "-1"], "h_g"),
    (["validate", "--criterion", "nonsense"], "invalid choice"),
    (["validate", "--seed", "x"], "invalid int value"),
])
def test_bad_input_exits_2_with_error_line(capsys, tmp_path, args, word):
    out = tmp_path / "out.csv"
    if args[0] != "validate":
        args = args + ["--out", str(out)]
    assert _exit_code(args) == 2
    err = capsys.readouterr().err
    assert "error:" in err and word in err
    assert not out.exists()
