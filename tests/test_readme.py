"""The README's examples, run as they stand: the example config and the Library block."""

import re
from pathlib import Path

from susyq.cli import EXIT_OK, main, parse_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)


def _block(lang, start):
    """The README's one code block in `lang` whose text starts with `start`."""
    (text,) = [text for tag, text in BLOCKS if tag == lang and text.startswith(start)]
    return text


def test_readme_example_config_parses_to_its_documented_values(tmp_path, monkeypatch):
    # its trailing comments included, and `susyq validate` on it exits 0
    text = _block("", "order =")
    cfg = parse_config(text)
    assert cfg.order == 4
    assert cfg.epsilons == [-5.5, -4.5, -3.5, -2.5]
    assert cfg.parities == [-1, 1, -1, 1]
    assert cfg.x_max == 10.0
    assert cfg.grid_n == 4000
    assert cfg.levels_to_report == 8
    assert cfg.output_dir == Path("results/deep")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "plan.cfg").write_text(text, encoding="utf-8")
    assert main(["validate", "plan.cfg"]) == EXIT_OK


def test_readme_library_block_gives_its_commented_results():
    text = _block("python", "from susyq import")
    # the results its comments state
    assert "# [(2, -4.5), (4, -2.5)]" in text and "# = -92815/27378" in text
    namespace = {}
    exec(compile(text, "README.md", "exec"), namespace)
    assert namespace["predict_added"](namespace["plan"]) == [(2, -4.5), (4, -2.5)]
    assert namespace["report"].ok
    assert abs(namespace["vt"] - (-92815 / 27378)) <= 1e-13
