package models

import "fmt"

// zoo maps canonical names to builders.
var zoo = map[string]func() *Spec{
	"ResNet50":          ResNet50,
	"VGG16":             VGG16,
	"VGG19":             VGG19,
	"DenseNet121":       DenseNet121,
	"DenseNet169":       DenseNet169,
	"InceptionV3":       InceptionV3,
	"InceptionResNetV2": InceptionResNetV2,
	"MobileNet":         MobileNet,
	"MobileNetV2":       MobileNetV2,
	"NASNetLarge":       NASNetLarge,
	"NASNetMobile":      NASNetMobile,
	"NMT":               NMT,
}

// Names returns all model names in sorted order.
func Names() []string { return sortedNames(zoo) }

// ByName builds the named model.
func ByName(name string) (*Spec, error) {
	build, ok := zoo[name]
	if !ok {
		return nil, fmt.Errorf("models: unknown model %q (known: %v)", name, Names())
	}
	return build(), nil
}
