import json

from golden import regen


def test_cli_output_matches_committed_digests(tmp_path):
    # Every golden config gives the exit codes, masked stdout/stderr and
    # artifact bytes recorded in tests/golden/digests.json.
    table = json.loads(regen.TABLE.read_text())
    runs = regen.digests(tmp_path)
    differs = [
        f"{name}: {key}"
        for name in sorted(table["runs"].keys() | runs.keys())
        for key in sorted(table["runs"].get(name, {}).keys() | runs.get(name, {}).keys())
        if table["runs"].get(name, {}).get(key) != runs.get(name, {}).get(key)
    ]
    now = regen.versions()
    assert not differs, (
        f"{len(differs)} outputs differ from tests/golden/digests.json, made with "
        f"Python {table['python']} and numpy {table['numpy']} (this run: Python "
        f"{now['python']}, numpy {now['numpy']}); if the change is meant, run "
        "tests/golden/regen.py:\n" + "\n".join(differs)
    )
