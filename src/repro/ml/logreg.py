"""Multinomial logistic regression fitted with L-BFGS.

Matches the role of ``sklearn.linear_model.LogisticRegression`` with
default parameters in the paper's node-classification protocol: an L2
penalty of strength ``1/C`` with C = 1.0, softmax over classes, no
intercept penalty.
"""

from __future__ import annotations

import numpy as np


class LogisticRegression:
    """Softmax regression with L2 regularization.

    Args:
        c: inverse regularization strength (sklearn's ``C``).
        max_iter: L-BFGS iteration cap.
        tol: L-BFGS gradient tolerance.
    """

    def __init__(self, c: float = 1.0, max_iter: int = 200, tol: float = 1e-6) -> None:
        if c <= 0:
            raise ValueError(f"C must be positive, got {c}")
        self.c = c
        self.max_iter = max_iter
        self.tol = tol
        self.classes_: np.ndarray | None = None
        self.coef_: np.ndarray | None = None  # (num_classes, dim)
        self.intercept_: np.ndarray | None = None  # (num_classes,)

    def _pack(self, coef: np.ndarray, intercept: np.ndarray) -> np.ndarray:
        return np.concatenate([coef.ravel(), intercept])

    def _unpack(self, theta: np.ndarray, k: int, d: int):
        coef = theta[: k * d].reshape(k, d)
        intercept = theta[k * d :]
        return coef, intercept

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        """Fit on features ``x`` (n, d) and integer/str labels ``y`` (n,)."""
        # scipy.optimize costs about 27 MB of RSS to import; importing it
        # here keeps it out of every process that never fits (a server
        # reaches this module through repro.ml.kmeans)
        from scipy.optimize import minimize
        from scipy.special import logsumexp

        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y)
        if x.ndim != 2 or y.shape != (x.shape[0],):
            raise ValueError("x must be (n, d) and y (n,)")
        self.classes_ = np.unique(y)
        k, (n, d) = self.classes_.size, x.shape
        if k < 2:
            raise ValueError("need at least two classes")
        class_index = {label: i for i, label in enumerate(self.classes_)}
        targets = np.array([class_index[label] for label in y])
        onehot = np.zeros((n, k))
        onehot[np.arange(n), targets] = 1.0
        lam = 1.0 / (2.0 * self.c)

        def objective(theta: np.ndarray):
            coef, intercept = self._unpack(theta, k, d)
            logits = x @ coef.T + intercept  # (n, k)
            log_norm = logsumexp(logits, axis=1)
            nll = (log_norm - logits[np.arange(n), targets]).sum()
            loss = nll + lam * np.sum(coef**2)
            probs = np.exp(logits - log_norm[:, None])
            residual = probs - onehot  # (n, k)
            grad_coef = residual.T @ x + 2.0 * lam * coef
            grad_intercept = residual.sum(axis=0)
            return loss, self._pack(grad_coef, grad_intercept)

        theta0 = np.zeros(k * d + k)
        result = minimize(
            objective,
            theta0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter, "gtol": self.tol},
        )
        self.coef_, self.intercept_ = self._unpack(result.x, k, d)
        return self

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("fit() must be called before predicting")
        x = np.asarray(x, dtype=np.float64)
        return x @ self.coef_.T + self.intercept_

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        logits = self.decision_function(x)
        logits -= logits.max(axis=1, keepdims=True)
        expd = np.exp(logits)
        return expd / expd.sum(axis=1, keepdims=True)

    def predict(self, x: np.ndarray) -> np.ndarray:
        scores = self.decision_function(x)
        return self.classes_[scores.argmax(axis=1)]
