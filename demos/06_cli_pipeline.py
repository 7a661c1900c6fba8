"""The command-line surface, end to end in a temporary directory.

Every subcommand writes its outputs plus a manifest.json capturing all
result-affecting constants, so each run can be reproduced from its manifest
alone.  Run settings come from the run's dataclass defaults, then from an
INI file given with --config, then from the flags that were given; the abc
step below takes its budget from a file and overrides the file's population
with a flag.  The same flow is available as a single command:

    statforge smoke --out OUT --seed 3

Run:  python3 demos/06_cli_pipeline.py
"""

import json
import tempfile
from pathlib import Path

from statforge.cli import main

root = Path(tempfile.mkdtemp(prefix="statforge-demo-"))
print(f"working under {root}\n")


def run(*argv):
    pretty = " ".join(str(a) for a in argv)
    print(f"$ statforge {pretty}")
    code = main([str(a) for a in argv])
    assert code == 0, f"exit {code}"


run("simulate", "--model", "nlar1", "--theta", "5.3,0.015", "--seed", "7",
    "--n-steps", "60", "--out", root / "obs")
run("suffstats", "--input", root / "obs" / "trajectory.csv", "--out", root / "stats")
run("train-enca", "--model", "nlar1", "--q", "3", "--steps", "150",
    "--minibatch", "32", "--n-steps", "60", "--seed", "1", "--out", root / "train")
run("encode", "--weights", root / "train" / "weights.sfwt",
    "--input", root / "obs" / "trajectory.csv", "--out", root / "enc")
abc_ini = root / "abc.ini"
abc_ini.write_text("[abc]\npopulation = 50\nbudget = 2000\n")
print(f"# {abc_ini.name}: " + abc_ini.read_text().replace("\n", " "))
run("abc", "--model", "nlar1", "--observation", root / "obs" / "trajectory.csv",
    "--weights", root / "train" / "weights.sfwt", "--config", abc_ini,
    "--population", "100", "--seed", "5", "--out", root / "abc")
run("mcmc", "--model", "nlar1", "--observation", root / "obs" / "trajectory.csv",
    "--chain-length", "8000", "--seed", "5", "--out", root / "mcmc")
run("diagnose", "--posterior", root / "abc" / "samples.csv",
    "--reference", root / "mcmc" / "samples.csv", "--model", "nlar1",
    "--distances", root / "abc" / "samples.csv", "--out", root / "diag")

print("\noutputs:")
for path in sorted(root.rglob("*")):
    if path.is_file():
        print(f"  {path.relative_to(root)}")

manifest = json.loads((root / "abc" / "manifest.json").read_text())
print("\nabc manifest keys:", sorted(manifest))
print("merged annealing config recorded in manifest (budget from the file, "
      "population from the flag):", manifest["config"]["abc"]["config"])
print("\nwasserstein table:")
print((root / "diag" / "wasserstein.csv").read_text())
