"""Pins the CLI's rendering of verify reports, failures included.

The pinned argvs of bench/expected/cli_fixtures.json include no
unidentified report, so this digest covers the failure paths of the two
verify verbs' text and --json output.  CLI_DIGEST is a sha256 over
repr((exit code, stdout)) of

    verify-vanishing <fan> --max-deg 4
    verify-k-vanishing <fan> --box 2

each as text and then with --json (inner loops), for the one-cone fan of
every cone of tests/corpus.py and then of the negative corpus (outer
loop).  The negative corpus brings unidentified cones, non-iso degrees,
torsion and, at box 2, radii too small for a generator (exit 2, empty
stdout).  It was computed on the code in which each payload was still
built key by key, so any change to a report's bytes or exit code shows
here.
"""

import hashlib
import json

from corpus import CORPUS_DATA
from test_negative_corpus import NEGATIVE
from toricstacks.cli import run

CLI_DIGEST = \
    "7ce3bb3dbbaa8de00befa7f87be79e8f653aeda8d3a428d6ceb41393173ce463"
ARGVS = (["verify-vanishing", "--max-deg", "4"],
         ["verify-k-vanishing", "--box", "2"])


def test_verify_reports_digest(tmp_path, capsys):
    cones = list(CORPUS_DATA) + [(n, rays) for n, rays, _c, _k in NEGATIVE]
    digest = hashlib.sha256()
    for i, (rank, rays) in enumerate(cones):
        path = tmp_path / ("cone%d.json" % i)
        path.write_text(json.dumps({"rank": rank, "rays": rays,
                                    "max_cones": [list(range(len(rays)))]}))
        for verb, *options in ARGVS:
            for json_flag in ([], ["--json"]):
                code = run([verb, str(path)] + options + json_flag)
                out = capsys.readouterr().out
                digest.update(repr((code, out)).encode())
    assert digest.hexdigest() == CLI_DIGEST
