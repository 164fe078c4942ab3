"""A catalogue of planted defects, each of which tier-1 must kill.

Run by hand from the repository root (pytest does not collect this file, as
its name does not match ``test_*.py``)::

    python tests/defects.py              # every entry
    python tests/defects.py relu Adam    # entries whose name holds a word

For each entry it copies the checkout (``src/``, ``tests/``, ``bench/`` and
the rest, without ``.git`` and caches) to a temporary directory, replaces
one exact string in one file of the copy's ``src/``, runs tier-1 with
``-x`` in the copy, and prints the first test that fails, or ``SURVIVED``.
The whole checkout is copied because the benchmark's own tests insist on
importing the package from the ``src/`` beside them.  The unchanged
copy runs first and must pass, so a failure is the defect's.  An entry whose
old string is not in its file exactly once stops the run, so the catalogue
cannot rot silently.  A survivor is a hole in tier-1: add the test that
kills it; never weaken the entry.

Each run takes up to one tier-1 run (about 30 s on a 2-vCPU machine), so the
full catalogue takes several minutes.

The last full run, on a 2-vCPU machine, took 443 s for all 31 entries (the
unchanged copy passes in 28 s), and every entry died.  First failing test
of each:

- template rotation off by one (build_batch):
  ``test_acceptance::test_criterion_1_gradient_integrity``
- EXCHANGE_K 2 -> 1: ``test_pinned_outputs::test_outputs_match_the_pins``
- Adam's first-moment bias correction one step ahead:
  ``test_coordinator::test_adam_first_step_magnitude``
- row_blocks takes in remainders under a quarter block, not a half:
  ``test_properties::test_row_blocks_cover_each_row_once_with_no_short_block``
- relu masks skipped in _relu_mlp_backward:
  ``test_acceptance::test_criterion_1_gradient_integrity``
- contrastive value 1e-7 too large, relatively:
  ``test_acceptance::test_criterion_2_loss_oracle_equivalence``
- check_split_labels drops its label-in-space check:
  ``test_properties::test_check_split_labels_accepts_exactly_the_integer_labels_in_the_space``
- the visual context leaves out the first image:
  ``test_bus::test_default_round_log_file_matches_the_round``
- relu mask taken as >= 0:
  ``test_acceptance::test_criterion_1_gradient_integrity``
- a leaf's .grad assigned without a copy:
  ``test_acceptance::test_criterion_1_gradient_integrity`` (errors)
- float labels truncated (check_labels):
  ``test_autodiff::test_label_checks_reject_a_dtype_that_is_not_an_integer_dtype[fractional]``
- float match indices truncated (check_matches):
  ``test_coordinator::test_match_checks_reject_a_dtype_that_is_not_an_integer_dtype[fractional]``
- config floats parsed in single precision:
  ``test_harness::test_config_file_roundtrip``
- check_split_labels accepts float and bool labels:
  ``test_properties::test_check_split_labels_accepts_exactly_the_integer_labels_in_the_space``
- ties go to the last of equal class rows (distinct_rows):
  ``test_coordinator::test_nearest_class_gives_a_tie_to_the_first_of_equal_class_rows``
- nearest_class scores equal class rows as separate columns:
  ``test_world::test_blind_ood_zero_shot_is_uniform[default]``
- class_text_features encodes equal prompt rows separately:
  ``test_text_agent::test_text_features_equal_the_tiled_composed_chain``
- the round schema accepts a sender's labels in any order (bus):
  ``test_bus::test_run_round_names_an_agent_that_breaks_the_schema[image_reorders]``
- the log keeps three values, not four (bus):
  ``test_bus::test_log_records_payload_summary``
- --jobs 0 accepted (cli):
  ``test_harness::test_cli_jobs_below_one_is_hard_error[0-few-shot]``
- partial failures exit 1, not 2 (cli):
  ``test_harness::test_a_shot_with_no_ok_cell_has_no_mean_in_any_reader``
- harmonic accuracy halved (harness): ``test_harness::test_harmonic_accuracy``
- an ablation flag listed twice is accepted (harness):
  ``test_harness::test_ablation_rejects_a_repeated_flag``
- a name-table row weighs 1, not 1/length, in its pooled prompt (name_agent):
  ``test_name_agent::test_a_table_update_shows_in_the_next_pool``
- frozen tokens pooled over the frozen ones only (name_agent):
  ``test_pinned_outputs::test_outputs_match_the_pins``
- disable_difficulty on by default (settings):
  ``test_acceptance::test_criterion_7_ablation_directionality`` (errors)
- a self-check suite passes at its bound (selfcheck):
  ``test_harness::test_cli_selftest_fails_on_a_suite_at_its_bound``
- ALPHA 0.1 -> 0.2: ``test_image_agent::test_robust_features_hand_case``
- DIFFICULTY_THRESHOLD 0.5 -> 0.6:
  ``test_image_agent::test_an_agent_without_estimation_builds_no_scorer_and_scores_neutral``
- ADAM_EPS 1e-8 -> 1e-7: ``test_coordinator::test_adam_first_step_magnitude``
- TAU_BAND upper edge 2.0 -> 2.5:
  ``test_coordinator::test_effective_temperature_clips_upper``
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
LEFT_OUT = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out", ".benchmarks", "results"
)


class Defect(NamedTuple):
    name: str
    file: str  # under src/namelearn/
    old: str
    new: str


CATALOGUE = [
    Defect(
        "template rotation off by one (build_batch)",
        "session.py",
        "pools[cid][(j + epoch) % len(pools[cid])]",
        "pools[cid][(j + epoch + 1) % len(pools[cid])]",
    ),
    Defect("EXCHANGE_K 2 -> 1", "session.py", "EXCHANGE_K = 2", "EXCHANGE_K = 1"),
    Defect(
        "Adam's first-moment bias correction one step ahead",
        "coordinator.py",
        "m_hat = m / (1 - b1**self.t)",
        "m_hat = m / (1 - b1 ** (self.t + 1))",
    ),
    Defect(
        "row_blocks takes in remainders under a quarter block, not a half",
        "autodiff.py",
        "range(0, n - (step - 1) // 2, step)",
        "range(0, n - (step - 1) // 4, step)",
    ),
    Defect(
        "relu masks skipped in _relu_mlp_backward",
        "text_agent.py",
        "g = g * (inputs[i // 2] > 0)",
        "g = g",
    ),
    Defect(
        "contrastive value 1e-7 too large, relatively",
        "coordinator.py",
        "- picked) / (2.0 * n)",
        "- picked) / (2.0 * n) * (1.0 + 1e-7)",
    ),
    Defect(
        "check_split_labels drops its label-in-space check",
        "world.py",
        "    if outside:\n        raise ValueError",
        "    if False:\n        raise ValueError",
    ),
    Defect(
        "the visual context leaves out the first image",
        "image_agent.py",
        '"visual_context": ad.mean_rows(features),',
        '"visual_context": ad.mean_rows(Tensor(features.data[1:])),',
    ),
    Defect(
        "relu mask taken as >= 0",
        "text_agent.py",
        "g = g * (inputs[i // 2] > 0)",
        "g = g * (inputs[i // 2] >= 0)",
    ),
    Defect(
        "a leaf's .grad assigned without a copy",
        "autodiff.py",
        "np.array(grads[leaf], np.float64)",
        "grads[leaf]",
    ),
    Defect(
        "float labels truncated (check_labels)",
        "autodiff.py",
        "idx = np.asarray(labels)\n",
        "idx = np.asarray(labels, dtype=np.intp)\n",
    ),
    Defect(
        "float match indices truncated (check_matches)",
        "coordinator.py",
        "y = np.asarray(y)\n",
        "y = np.asarray(y, dtype=np.intp)\n",
    ),
    Defect(
        "config floats parsed in single precision",
        "harness.py",
        "    return float(value)\n",
        "    return float(np.float32(value))\n",
    ),
    Defect(
        "check_split_labels accepts float and bool labels",
        "world.py",
        'if labels.dtype.kind not in "iu":',
        'if labels.dtype.kind not in "iufb":',
    ),
    Defect(
        "ties go to the last of equal class rows (distinct_rows)",
        "coordinator.py",
        "return np.unique(index, return_index=True)[1], index",
        "return len(index) - 1 - np.unique(index[::-1], return_index=True)[1], index",
    ),
    Defect(
        "nearest_class scores equal class rows as separate columns",
        "coordinator.py",
        "first = distinct_rows(classes)[0]",
        "first = np.arange(len(classes))",
    ),
    Defect(
        "class_text_features encodes equal prompt rows separately",
        "session.py",
        "first, index = distinct_rows(pooled)",
        "first, index = distinct_rows(np.arange(len(pooled))[:, None])",
    ),
    Defect(
        "the round schema accepts a sender's labels in any order (bus)",
        "bus.py",
        "if tuple(sent) != labels:",
        "if sorted(sent) != sorted(labels):",
    ),
    Defect(
        "the log keeps three values, not four (bus)", "bus.py", "LOG_VALUES = 4", "LOG_VALUES = 3"
    ),
    Defect("--jobs 0 accepted (cli)", "cli.py", "if args.jobs < 1:", "if args.jobs < 0:"),
    Defect(
        "partial failures exit 1, not 2 (cli)",
        "cli.py",
        'file=sys.stderr)\n        return 2',
        'file=sys.stderr)\n        return 1',
    ),
    Defect(
        "harmonic accuracy halved (harness)",
        "harness.py",
        "return 2.0 * sc * ood / (sc + ood)",
        "return sc * ood / (sc + ood)",
    ),
    Defect(
        "an ablation flag listed twice is accepted (harness)",
        "harness.py",
        "if flag in flags[:i]:",
        "if False:",
    ),
    Defect(
        "a name-table row weighs 1, not 1/length, in its pooled prompt (name_agent)",
        "name_agent.py",
        "selection[i, rendered.name_row] = 1.0 / len(rendered.prompt_tokens)",
        "selection[i, rendered.name_row] = 1.0",
    ),
    Defect(
        "frozen tokens pooled over the frozen ones only (name_agent)",
        "name_agent.py",
        "return vocab[ids].sum(axis=0) / len(rendered.prompt_tokens)",
        "return vocab[ids].sum(axis=0) / len(ids)",
    ),
    Defect(
        "disable_difficulty on by default (settings)",
        "settings.py",
        "disable_difficulty: bool = False",
        "disable_difficulty: bool = True",
    ),
    Defect(
        "a self-check suite passes at its bound (selfcheck)",
        "selfcheck.py",
        "return self.worst < self.bound",
        "return self.worst <= self.bound",
    ),
    Defect("ALPHA 0.1 -> 0.2", "image_agent.py", "ALPHA = 0.1", "ALPHA = 0.2"),
    Defect(
        "DIFFICULTY_THRESHOLD 0.5 -> 0.6",
        "image_agent.py",
        "DIFFICULTY_THRESHOLD = 0.5",
        "DIFFICULTY_THRESHOLD = 0.6",
    ),
    Defect(
        "ADAM_EPS 1e-8 -> 1e-7",
        "coordinator.py",
        "ADAM_EPS = 0.9, 0.999, 1e-8",
        "ADAM_EPS = 0.9, 0.999, 1e-7",
    ),
    Defect(
        "TAU_BAND upper edge 2.0 -> 2.5",
        "coordinator.py",
        "TAU_BAND = (0.5, 2.0)",
        "TAU_BAND = (0.5, 2.5)",
    ),
]


def check(defect: Defect) -> None:
    """Exit unless the entry's old string is in its file exactly once."""
    count = (ROOT / "src" / "namelearn" / defect.file).read_text().count(defect.old)
    if count != 1:
        sys.exit(f"{defect.name}: old string found {count} times in {defect.file}, not once")


def first_failure(checkout: Path) -> str | None:
    """The first test tier-1 fails (``-x``) in ``checkout``, or ``None`` if
    it passes."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    command = [
        sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
        "--continue-on-collection-errors",
    ]  # fmt: skip
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return None
    lines = done.stdout.splitlines()
    failed = [line for line in lines if line.startswith(("FAILED ", "ERROR "))]
    other = (lines + done.stderr.splitlines())[-1:]
    return (failed or other or [f"exit code {done.returncode}"])[0]


def run(defects: list[Defect | None]) -> None:
    for defect in defects:
        with tempfile.TemporaryDirectory(prefix="defect-") as tmp:
            checkout = Path(tmp) / "checkout"
            shutil.copytree(ROOT, checkout, ignore=LEFT_OUT)
            if defect:
                path = checkout / "src" / "namelearn" / defect.file
                path.write_text(path.read_text().replace(defect.old, defect.new))
            start = time.perf_counter()
            failure = first_failure(checkout)
            seconds = time.perf_counter() - start
        if defect is None:
            if failure:
                sys.exit(f"the unchanged copy fails tier-1: {failure}")
            print(f"unchanged copy: passes ({seconds:.0f} s)", flush=True)
        else:
            print(f"{defect.name}: {failure or 'SURVIVED'} ({seconds:.0f} s)", flush=True)


def main(words: list[str]) -> None:
    chosen = [d for d in CATALOGUE if not words or any(w in d.name for w in words)]
    if not chosen:
        sys.exit(f"no entry matches {words}")
    for defect in CATALOGUE:
        check(defect)
    start = time.perf_counter()
    run([None, *chosen])
    print(f"{len(chosen)} defects in {time.perf_counter() - start:.0f} s")


if __name__ == "__main__":
    main(sys.argv[1:])
