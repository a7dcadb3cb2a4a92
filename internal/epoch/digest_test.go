package epoch

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// constructionDigests pins the dynamic construction: for every cell of
// digestGrid, one SHA-256 over three epochs' Stats and graph fingerprints.
// A layout or speed change (the Chord table's arenas, the group storage,
// the build loop) must leave every one of them untouched. A mismatch
// means a route, an rng draw or a classification changed, and the
// experiment goldens will move with it.
var constructionDigests = map[string]string{
	"n1024/chord/beta0.02/g1":    "8922f9a654016a0bab085caf7fe8861943fcec2089cf5b88b8ce1add09dfed06",
	"n1024/chord/beta0.02/g2":    "0d5372ac06b52b28676f445aa9e0d372c0a5ec760875cf36d9a8dffb7adc0c96",
	"n1024/chord/beta0.05/g1":    "1fc9d388c501c67a27fe2b13683e8221ede1b1cddc3abb7be26353ecbe5a34c7",
	"n1024/chord/beta0.05/g2":    "704c50a90d03f658e960126c06d39b64c1bb7b9356f3563d64e2f14607913345",
	"n1024/chord/beta0.15/g1":    "34912b972bb61a1c072656d67ec38ef513571695d701dfeb74f523e88dbb6312",
	"n1024/chord/beta0.15/g2":    "0343425eb1383c5919159ce55d333845d2aee8296bec668480c5eb18b899b25c",
	"n1024/debruijn/beta0.02/g1": "35708548e009d84e3727958544911291931a467b91085572333a384879df4c13",
	"n1024/debruijn/beta0.02/g2": "ea90232a2572eab0161ee2b43d9986539d795a65c3e4bfc79187a9f9d775f509",
	"n1024/debruijn/beta0.05/g1": "bf30a597924d72c24e6d285d4a2f5535ca1239005517a1b0a7f7325b65723ae1",
	"n1024/debruijn/beta0.05/g2": "22dea3a3110038b81935392edeaf8da268fb662ba0bd102de35c37274405401b",
	"n1024/debruijn/beta0.15/g1": "13e885a197e0a3dde5ba89271f50673898509a985b1fa087c601b40efd130326",
	"n1024/debruijn/beta0.15/g2": "4a66fbb845a6d08afa70d8f0f25b083b1af0cb789c80a12d8f333e56c88a4082",
	"n1024/viceroy/beta0.02/g1":  "7501d2f5b7bec255d86783d7e527463f3790af75e1614026177d01f2fba5245a",
	"n1024/viceroy/beta0.02/g2":  "69b25b47f4667771978698e14647f5cbd04d334a39fa3e3975fd8616cf4948b3",
	"n1024/viceroy/beta0.05/g1":  "6807b0fb7f3683c40df2ea90b411ef7dbfbaee4be81af52d923da3c9e2f5742b",
	"n1024/viceroy/beta0.05/g2":  "667d205beefc01c91b2ea415e4df40512b1d0b5667c5ad17c892e676fdddc1c1",
	"n1024/viceroy/beta0.15/g1":  "5c5147cf524a394b82989c4e87d54a3895b08a67977dfedafb85b46d9f3eb899",
	"n1024/viceroy/beta0.15/g2":  "1d4c2a027669f7942e3695968a2e1cfd4d9ca16e17a19311226822a2d4a57ec8",
	"n256/chord/beta0.02/g1":     "f7f81d83aad6d5edcd7c9c258cc7bf771f0ea4f47327442678918e01d3f7ba0c",
	"n256/chord/beta0.02/g2":     "81044c1d35880e64af53786a6250ab4ddbbfb7050d9953035ddff9183031e3b1",
	"n256/chord/beta0.05/g1":     "bc4b525e30a16df49f3c739a568db0a0d8e1be43d5aea83681420fed6fb6fada",
	"n256/chord/beta0.05/g2":     "6eb41f7ba916582647ff0eed70427acba82fca00f6be0cd1cd15ee907f55da1c",
	"n256/chord/beta0.15/g1":     "9efe07b7a1919735d160097ce60f176e889e44c2a5dd667c4adc461adf9f675d",
	"n256/chord/beta0.15/g2":     "4d7f1b9a4197f522599827c39dc9eca8eaff5c43dc86a90a5f6a3fcd5048525d",
	"n256/debruijn/beta0.02/g1":  "ca52f263c0e936a44249b24b866200733f2f3bd0d77a541fc95ea03024603d40",
	"n256/debruijn/beta0.02/g2":  "7260b58ee1692c585ec72553c353dcc80cb56b28a2680467618d2724fffe690c",
	"n256/debruijn/beta0.05/g1":  "80549674c35b22f2451def8e71baf2689ae4f2950788509bdc326537f7b0ce2c",
	"n256/debruijn/beta0.05/g2":  "6938e4e172a0683756c2c8bbb0fdbaa303ee46f0d3d81879055b8d1c8ed40cc9",
	"n256/debruijn/beta0.15/g1":  "8f2611a82f7d1ed9b83cd7fec797db55bcbc14db3d2262d8766c98589d4c2062",
	"n256/debruijn/beta0.15/g2":  "f0abb505316cb105536f1245e427213b80f204f18b2b5b0f204e1b8d1a2c1c4d",
	"n256/viceroy/beta0.02/g1":   "8d4352b3a5f1753bd999e729e84e4e9741929a3ec2b39240b08edadd7cc1fbfc",
	"n256/viceroy/beta0.02/g2":   "20660cf65b4aaf014c3dc79f33e8d1da9fa42a4ef75de27fe3475b5fc54aa4c5",
	"n256/viceroy/beta0.05/g1":   "c1b811ca696252ed83c9c6c209fb2b6c81694b7b43bd57909ad2f0ae0cb404cb",
	"n256/viceroy/beta0.05/g2":   "a878de99576e4b05db9ec7402421a7a41b85b440dbf4cf4fc3fd3ebf0f6ac166",
	"n256/viceroy/beta0.15/g1":   "1c286fe7ab86fdb18c4883e916c5f749100f8a6485eff03fee99a752ae2a7e4a",
	"n256/viceroy/beta0.15/g2":   "2d549776aa182f55c48f2da1acd342014c0937e5072111df1f41afd06cf7bed5",
	"n4096/chord/beta0.05/g2":    "42e7ad7599501a573e84ba734cebb9cb00960b94797932c89508be1647e6de10",
}

type digestCell struct {
	n       int
	overlay string
	beta    float64
	graphs  int
}

func (c digestCell) String() string {
	return fmt.Sprintf("n%d/%s/beta%.2f/g%d", c.n, c.overlay, c.beta, c.graphs)
}

// digestGrid is n ∈ {256, 1024} × every overlay × β ∈ {0.02, 0.05, 0.15} ×
// one and two graphs, plus one n = 4096 cell on the default configuration
// (a full n = 4096 row would cost several seconds).
func digestGrid() []digestCell {
	var cells []digestCell
	for _, n := range []int{256, 1024} {
		for _, ov := range []string{"chord", "debruijn", "viceroy"} {
			for _, beta := range []float64{0.02, 0.05, 0.15} {
				for _, graphs := range []int{1, 2} {
					cells = append(cells, digestCell{n, ov, beta, graphs})
				}
			}
		}
	}
	return append(cells, digestCell{4096, "chord", 0.05, 2})
}

// constructionDigest runs three epochs of cell and hashes each epoch's
// Stats and graphFingerprint into one digest.
func constructionDigest(t *testing.T, c digestCell) string {
	cfg := DefaultConfig(c.n)
	cfg.Overlay = c.overlay
	cfg.Params.Beta = c.beta
	cfg.TwoGraphs = c.graphs == 2
	cfg.Seed = 41
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for e := 0; e < 3; e++ {
		fmt.Fprintf(h, "%+v\n", s.RunEpoch())
		fp := graphFingerprint(s.Generation().Graphs)
		h.Write(fp[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestConstructionDigests is the byte-identity gate of the dynamic
// construction across every overlay, β regime and graph count.
func TestConstructionDigests(t *testing.T) {
	for _, c := range digestGrid() {
		t.Run(c.String(), func(t *testing.T) {
			t.Parallel()
			got := constructionDigest(t, c)
			if want := constructionDigests[c.String()]; got != want {
				t.Errorf("construction digest %s, want %s", got, want)
			}
		})
	}
}
