"""Test oracle: the reward sampler as it drew from the generator itself.

``sample_rewards`` is the former body of ``Instance.sample_rewards``, kept
verbatim with ``self`` as an argument: Bernoulli compares one uniform per
step, and the truncated Gaussian calls ``truncnorm.rvs`` on the steps whose
mean leaves room.  ``Instance.rewards`` must reproduce it bit for bit.
"""

import numpy as np


def sample_rewards(self, rng: np.random.Generator, means: np.ndarray) -> np.ndarray:
    means = np.asarray(means, dtype=float)
    if self.noise == "bernoulli":
        return (rng.random(means.shape[0]) < means).astype(float)
    if self.noise == "truncated_gaussian":
        # symmetric truncation about the mean keeps E[Y] = mean and Y in [0,1];
        # a mean at 0 or 1 leaves no room and the reward is deterministic
        half = np.minimum(means, 1.0 - means)
        y = means.copy()
        room = half > 0
        if np.any(room):
            # imported here, not at module level: only this law needs scipy.stats,
            # and it is slow to import
            from scipy import stats

            width = half[room] / self.noise_scale
            y[room] = stats.truncnorm.rvs(
                -width, width, loc=means[room], scale=self.noise_scale, random_state=rng
            )
        return y
    raise ValueError(f"unknown noise law {self.noise!r}")
