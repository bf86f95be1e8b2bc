"""``cirkit estimate`` output pinned across commits by SHA-256.

A refactor of the receive chain (``signal``, ``io``, ``sounder``) must
leave every digest as it is. The capture holds noise, a DC offset, spikes
(two of them side by side, two astride the mitigation chunk edge) and
starts part-way into a period, so every stage of the chain changes it. With
numpy 2.4.6 these CSVs had the same bytes under numpy's X86_V3 and X86_V4
dispatch; the generator's digests (``test_generator_bytes``) do not.
"""

import hashlib

import numpy as np
import pytest

from cirkit import io, sounder
from cirkit.channel_apply import SyntheticChannel, add_awgn, apply_channel
from cirkit.cli import main
from cirkit.signal import IqSignal, zadoff_chu

N = sounder.DEFAULT_SEQUENCE_LENGTH
SEQUENCE = zadoff_chu(sounder.DEFAULT_ROOT, N)
# more periods than one 256-period mitigation chunk holds
PERIODS = 300
# samples into a period at which the capture starts
OFFSET = 117
SPIKES = [5, 1000, 1001, 50_000, 90_367, 90_368, 100_000]

# sha256 of the PDP CSV that ``cirkit estimate --taper <key>`` writes
ESTIMATE_DIGESTS = {
    "0": "04fc7702efd032e8849b63ab884d9e6ed77d490f61656462b53803de91d6e2e9",
    "0.1": "58ca47c4ba0befba88749c616b3f75354451e3e405ac20712569e8b64bffd776",
}


def write_capture(path):
    tx = sounder.build_sounding_signal(SEQUENCE, PERIODS + 2, sounder.DEFAULT_SAMPLE_RATE_HZ)
    rx = add_awgn(apply_channel(tx, SyntheticChannel([1.0, 0.0, 0.4j, 0.2, 0, 0, 0.05])), 15.0, 5)
    samples = rx.samples[OFFSET : OFFSET + PERIODS * N + 40] + (0.3 - 0.1j)
    phases = np.random.default_rng(9).uniform(0.0, 2.0 * np.pi, len(SPIKES))
    samples[SPIKES] = 40.0 * np.exp(1j * phases)
    io.write_iq(path, IqSignal(samples, sounder.DEFAULT_SAMPLE_RATE_HZ, 2.48e9))


def test_capture_starts_off_the_period(tmp_path):
    path = tmp_path / "rx.iq"
    write_capture(path)
    with io.IqReader(path) as reader:
        assert sounder.synchronize(sounder.mitigate_artifacts(reader), SEQUENCE) == N - OFFSET


@pytest.mark.parametrize("taper", sorted(ESTIMATE_DIGESTS))
def test_estimate_csv_digest(tmp_path, taper):
    rx, out = tmp_path / "rx.iq", tmp_path / "pdp.csv"
    write_capture(rx)
    assert main(["estimate", "--rx", str(rx), "--taper", taper, "--pdp-out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ESTIMATE_DIGESTS[taper]
