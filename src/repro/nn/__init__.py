"""Minimal numpy autograd + neural-network substrate.

The paper implements its models in PyTorch/C++; this package provides the
equivalent functionality from scratch so the reproduction has no deep
learning framework dependency: reverse-mode autograd tensors, LSTM
seq2seq stacks with attention, the Chamfer-measure loss (paper Eq. 5),
and Adam/SGD optimizers.
"""

from .tensor import Tensor, concat, stack, unbroadcast
from .functional import softmax, log_softmax, sigmoid, tanh, relu, dropout, linear
from .modules import Module, Linear, Embedding, Sequential, MLP
from .rnn import LSTMCell, LSTM, Seq2SeqStack, StackedSeq2Seq
from .attention import LuongAttention, SelfAttention
from .losses import (
    chamfer_directed,
    chamfer_loss,
    chamfer_forward_only,
    l2_loss,
    bce_with_logits,
    cross_entropy,
    nonoverlap_count,
)
from .optim import Optimizer, SGD, Adam, clip_grad_norm
from .serialization import save_module, load_module

__all__ = [
    "Tensor", "concat", "stack", "unbroadcast",
    "softmax", "log_softmax", "sigmoid", "tanh", "relu", "dropout", "linear",
    "Module", "Linear", "Embedding", "Sequential", "MLP",
    "LSTMCell", "LSTM", "Seq2SeqStack", "StackedSeq2Seq",
    "LuongAttention", "SelfAttention",
    "chamfer_directed", "chamfer_loss", "chamfer_forward_only", "l2_loss",
    "bce_with_logits", "cross_entropy", "nonoverlap_count",
    "Optimizer", "SGD", "Adam", "clip_grad_norm",
    "save_module", "load_module",
]
